(* The layer benchmarks, cold first: BENCH_layers.json via `make bench`.

   Every layer is a list of rows of one record, rendered once as an
   inl-bench-v2 report through the serve JSON printer:
   - solver: LU + full-Cholesky dependence analysis, the legality check
     of the corrected matrix C, completion from Example 12's partial
     row, code generation and translation validation, under memos
     off/on x jobs 1/N;
   - search: `Search.optimize` on kji Cholesky at jobs 1/N;
   - exec: six (kernel, schedule) pairs run through the exec runtime,
     sequential interpreter against the planned parallel execution.

   A row's [cold_ms] is the best of its passes that each start right
   after `Memo.clear_all ()` — what a fresh `inltool` process pays —
   and [warm_ms] the best of the passes after them, memos hot.
   [counters] are the first cold pass's memo hits/misses, read from the
   `Memo.all_stats` registry, plus the layer's own counts; [stable]
   holds what must not change between runs or machines (outputs,
   winners, miss counts, labels).  Every pass of a row must render the
   same output, and rows of one layer the same output as each other:
   speed that changes answers is not speed.

   `--smoke` (in `dune runtest` and `make bench-smoke`) runs every
   layer small with timings masked and asserts the pinned search winner
   and exec labels.  `--guard FILE` (in `make bench-guard` and the
   opt-in `@bench-guard` alias) fails when a row's stable fields
   differ from FILE's or its cold time is more than twice FILE's. *)

module Px = Inl_kernels.Paper_examples
module Search = Inl_search.Search
module Tf = Inl_fuzz.Tf
module Exec = Inl_exec.Exec
module Pool = Inl.Pool
module Omega = Inl.Omega
module Memo = Inl_diag.Memo
module Json = Inl_serve.Json

let jobs = ref 2
let smoke = ref false
let guard_path = ref ""
let out_path = ref ""
let cores = Domain.recommended_domain_count ()

(* The small search: fast enough for the test suite, big enough that
   the beam has real choices.  The smoke search layer pins its winner,
   and the exec layer executes that winner at both scales. *)
let smoke_search =
  { Search.default_config with Search.beam = 4; depth = 2; finalists = 3; size = 16 }
let smoke_winner = "complete row=[0,0,0,0,1,0,0]"

type scale = {
  iterations : int;
  size : int;
  cold_passes : int;
  warm_passes : int;
  search : Search.config;
}

let full =
  { iterations = 24; size = 64; cold_passes = 2; warm_passes = 2; search = Search.default_config }

let small = { iterations = 1; size = 16; cold_passes = 1; warm_passes = 1; search = smoke_search }

type row = {
  layer : string;
  workload : string;
  config : string;
  row_jobs : int;
  effective_jobs : int;
  cold_ms : float;
  warm_ms : float;
  split_ms : (string * float) list;  (* parts of the first cold pass *)
  counters : (string * Json.t) list;
  stable : (string * Json.t) list;
}

(* The one timing discipline.  [pass] returns the output every pass
   must reproduce byte for byte, and a payload.  Each cold pass starts
   from cleared memos and counters; the first one's payload and memo
   counters are kept, and the best cold and best warm times reported. *)
let measure ~scale ~jobs:j ?(cache = true) pass =
  Pool.set_jobs j;
  Memo.set_enabled cache;
  let first = ref None in
  let timed ~cold () =
    if cold then begin
      Memo.clear_all ();
      Omega.reset_solver_calls ();
      Inl.Legality.reset_delta_stats ()
    end;
    let t0 = Unix.gettimeofday () in
    let output, payload = pass () in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    (match !first with
    | None -> first := Some (output, payload, Memo.all_stats ())
    | Some (o, _, _) when String.equal o output -> ()
    | Some _ ->
        prerr_endline "FAIL: two passes of one configuration disagreed";
        exit 1);
    ms
  in
  let best ~cold n = List.fold_left Float.min infinity (List.init n (fun _ -> timed ~cold ())) in
  let cold_ms = best ~cold:true scale.cold_passes in
  let warm_ms = best ~cold:false scale.warm_passes in
  let output, payload, stats = Option.get !first in
  let memo =
    List.filter_map
      (fun (name, (s : Memo.stats)) ->
        if s.Memo.hits + s.Memo.misses = 0 then None
        else
          Some
            (name, Json.Obj [ ("hits", Json.Int s.Memo.hits); ("misses", Json.Int s.Memo.misses) ]))
      stats
  in
  (output, payload, cold_ms, warm_ms, memo)

let digest s = Json.String (Digest.to_hex (Digest.string s))

(* ---- solver ---- *)

let solver_pass ~scale () =
  let buf = Buffer.create 65536 in
  let add fmt = Printf.bprintf buf fmt in
  let add_deps ctx =
    List.iter (fun d -> add "%s\n" (Format.asprintf "%a" Inl.Dep.pp d)) ctx.Inl.deps
  in
  for _ = 1 to scale.iterations do
    add_deps (Inl.analyze_source Px.lu);
    let ctx = Inl.analyze_source Px.cholesky in
    add_deps ctx;
    (match Inl.check ctx (Inl.Mat.of_int_lists Px.corrected_c_rows) with
    | Inl.Legality.Legal { unsatisfied; _ } ->
        add "corrected C: legal, %d unsatisfied\n" (List.length unsatisfied)
    | Inl.Legality.Illegal msg -> add "corrected C: illegal: %s\n" msg);
    match Inl.complete_result ctx ~partial:[ Inl.Vec.of_int_list [ 0; 0; 0; 0; 0; 1; 0 ] ] with
    | Error ds -> add "%s\n" (Inl.Diag.list_to_string ds)
    | Ok m -> (
        add "completed:\n%s\n" (Format.asprintf "%a" Inl.Mat.pp m);
        match Inl.transform ctx m with
        | Error ds -> add "%s\n" (Inl.Diag.list_to_string ds)
        | Ok prog ->
            add "%s\n" (Inl.Pp.program_to_string prog);
            let ds = Inl_verify.Verify.(diags (run ~against:ctx.Inl.program prog)) in
            add "verify: %d findings\n" (List.length ds);
            List.iter (fun d -> add "%s\n" (Inl.Diag.to_string d)) ds)
  done;
  let sat, proj = Omega.solver_calls () in
  (Buffer.contents buf, sat + proj)

let solver_rows ~scale =
  let workload =
    Printf.sprintf "lu+cholesky analyze/legality/complete/codegen/verify x%d" scale.iterations
  in
  List.concat_map
    (fun cache ->
      List.map
        (fun j ->
          let output, calls, cold_ms, warm_ms, memo =
            measure ~scale ~jobs:j ~cache (solver_pass ~scale)
          in
          {
            layer = "solver";
            workload;
            config = Printf.sprintf "cache-%s-jobs%d" (if cache then "on" else "off") j;
            row_jobs = j;
            effective_jobs = Pool.jobs ();
            cold_ms;
            warm_ms;
            split_ms = [];
            counters = memo;
            stable = [ ("solver_calls", Json.Int calls); ("output", digest output) ];
          })
        [ 1; !jobs ])
    [ false; true ]

(* ---- search ---- *)

let render_search (o : Search.outcome) =
  let b = Buffer.create 4096 in
  let opt = function Some m -> string_of_int m | None -> "-" in
  Printf.bprintf b "source misses=%s\n" (opt o.Search.source_misses);
  List.iter
    (fun (e : Search.entry) ->
      Printf.bprintf b "%d %s %.6f %s\n%s" e.Search.rank (Search.recipe_line e.Search.recipe)
        e.Search.static_score (opt e.Search.misses)
        (match e.Search.program with Some p -> Inl.Pp.program_to_string p | None -> ""))
    o.Search.entries;
  Buffer.add_string b
    (match o.Search.winner with
    | Some w -> "winner " ^ Search.recipe_line w.Search.recipe ^ "\n"
    | None -> "no winner\n");
  Buffer.contents b

let search_rows ~scale =
  let c = scale.search in
  let workload =
    Printf.sprintf "kji-cholesky beam=%d depth=%d finalists=%d size=%d seed=%d" c.Search.beam
      c.Search.depth c.Search.finalists c.Search.size c.Search.seed
  in
  let ctx = Inl.analyze_source Px.cholesky_kji in
  List.map
    (fun j ->
      let output, (o, (inherited, checked)), cold_ms, warm_ms, memo =
        measure ~scale ~jobs:j (fun () ->
            let o = Search.optimize ~config:c ctx in
            (render_search o, (o, Inl.Legality.delta_stats ())))
      in
      let f = o.Search.funnel in
      let opt = function Some m -> Json.Int m | None -> Json.Null in
      {
        layer = "search";
        workload;
        config = Printf.sprintf "jobs%d" j;
        row_jobs = j;
        effective_jobs = Pool.jobs ();
        cold_ms;
        warm_ms;
        split_ms = [];
        counters =
          memo @ [ ("delta_inherited", Json.Int inherited); ("delta_checked", Json.Int checked) ];
        stable =
          [
            ( "winner",
              match o.Search.winner with
              | Some w -> Json.String (Search.recipe_line w.Search.recipe)
              | None -> Json.Null );
            ("winner_misses", opt (Option.bind o.Search.winner (fun w -> w.Search.misses)));
            ("source_misses", opt o.Search.source_misses);
            ("candidates", Json.Int f.Search.generated);
            ("reuse_classes", Json.Int f.Search.reuse_classes);
            ("reuse_pruned", Json.Int f.Search.reuse_pruned);
            ("sim_shared", Json.Int f.Search.sim_shared);
            ("output", digest output);
          ];
      })
    [ 1; !jobs ]

(* ---- exec ---- *)

let jacobi1d =
  "params T\n\
   params N\n\
   do K = 1..T\n\
  \  do I = 2..N-1\n\
  \    S1: A(K,I) = A(K-1,I-1) + A(K-1,I) + A(K-1,I+1)\n\
  \  enddo\n\
   enddo\n"

let seidel1d =
  "params T\n\
   params N\n\
   do K = 1..T\n\
  \  do I = 2..N-1\n\
  \    S1: A(I) = A(I-1) + A(I) + A(I+1)\n\
  \  enddo\n\
   enddo\n"

(* skew the space loop by twice the time loop, then interchange: the
   wavefront schedule that turns a time-iterated stencil's inner
   dimension DOALL (lib/search enumerates the same pair as one
   compound move) *)
let wavefront = [ ("skew", "I,K,2"); ("interchange", "K,I") ]

(* identity rows run the source program as written (original loop
   names); non-empty recipes go through materialize + transform, whose
   generated code renames loops t1..tn *)
let transformed src steps =
  let ctx = Inl.analyze_source src in
  if steps = [] then ctx.Inl.program
  else
    match Tf.materialize ctx { Tf.steps; partial = []; edits = [] } with
    | Error m -> failwith ("recipe does not materialize: " ^ m)
    | Ok mat -> Inl.transform_exn ctx mat

let search_winner src =
  let o = Search.optimize ~config:smoke_search (Inl.analyze_source src) in
  match o.Search.winner with
  | Some { Search.program = Some p; recipe; _ } -> (Search.recipe_line recipe, p)
  | _ -> failwith "search found no winner program"

(* pinned by --smoke: the plan and differential verdict of every row
   whose schedule is fixed, wall-time-free by construction *)
let expected_labels =
  [
    (("cholesky", "identity"), "ok:doall=I");
    (("jacobi1d", "identity"), "ok:doall=I");
    (("jacobi1d", "wavefront(f=2)"), "ok:doall=t2");
    (("seidel1d", "identity"), "degraded:X901");
    (("seidel1d", "wavefront(f=2)"), "ok:doall=t2");
  ]

let exec_rows ~scale =
  let winner_recipe, winner_prog = search_winner Px.cholesky_kji in
  let cases =
    [
      ("cholesky", "identity", transformed Px.cholesky_kji []);
      ("cholesky", "search:" ^ winner_recipe, winner_prog);
      ("jacobi1d", "identity", transformed jacobi1d []);
      ("jacobi1d", "wavefront(f=2)", transformed jacobi1d wavefront);
      ("seidel1d", "identity", transformed seidel1d []);
      ("seidel1d", "wavefront(f=2)", transformed seidel1d wavefront);
    ]
  in
  List.map
    (fun (kernel, schedule, prog) ->
      let params = List.map (fun p -> (p, scale.size)) prog.Inl.Ast.params in
      let label, report, cold_ms, warm_ms, memo =
        measure ~scale ~jobs:!jobs (fun () ->
            let r = Exec.benchmark ~jobs:!jobs ~repeat:1 prog ~params in
            (Exec.label r, r))
      in
      let split_ms, stable =
        match report with
        | Error ds ->
            ( [],
              [ ("label", Json.String label); ("error", Json.String (Inl.Diag.list_to_string ds)) ]
            )
        | Ok r ->
            ( [ ("seq", r.Exec.seq_ms); ("par", r.Exec.par_ms) ],
              [
                ("label", Json.String label);
                ( "plan",
                  Json.String
                    (match Exec.plan_var r.Exec.plan with Some v -> "par:" ^ v | None -> "seq") );
                ("doall", Json.Int (Exec.doall_count r.Exec.doall));
                ("loops", Json.Int r.Exec.loops);
                ("cells", Json.Int r.Exec.cells);
              ] )
      in
      {
        layer = "exec";
        workload = Printf.sprintf "%s N=%d" kernel scale.size;
        config = schedule;
        row_jobs = !jobs;
        effective_jobs = Pool.jobs ();
        cold_ms;
        warm_ms;
        split_ms;
        counters = memo;
        stable;
      })
    cases

(* ---- report ---- *)

(* Times are rounded to 1/8 ms so the printer's exact form has at most
   three decimals; --smoke masks them to 0. *)
let ms ~timings v = Json.Float (if timings then Float.round (v *. 8.0) /. 8.0 else 0.0)

let row_json ~timings r =
  Json.Obj
    [
      ("layer", Json.String r.layer);
      ("workload", Json.String r.workload);
      ("config", Json.String r.config);
      ("jobs", Json.Int r.row_jobs);
      ("effective_jobs", Json.Int r.effective_jobs);
      ("cores", Json.Int cores);
      ("cold_ms", ms ~timings r.cold_ms);
      ("warm_ms", ms ~timings r.warm_ms);
      ("split_ms", Json.Obj (List.map (fun (k, v) -> (k, ms ~timings v)) r.split_ms));
      ("counters", Json.Obj r.counters);
      ("stable", Json.Obj r.stable);
    ]

let render ~timings rows =
  let head =
    [
      ("schema", Json.String "inl-bench-v2");
      ("cores", Json.Int cores);
      ("jobs", Json.Int !jobs);
      ("timings", Json.Bool timings);
    ]
  in
  let line (k, v) =
    Printf.sprintf "  %s: %s,\n" (Json.to_string (Json.String k)) (Json.to_string v)
  in
  Printf.sprintf "{\n%s  \"rows\": [\n    %s\n  ]\n}\n"
    (String.concat "" (List.map line head))
    (String.concat ",\n    " (List.map (fun r -> Json.to_string (row_json ~timings r)) rows))

(* ---- assertions ---- *)

let failures ~smoke rows =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  List.iter
    (fun layer ->
      match List.filter_map (fun r -> if r.layer = layer then Some r.stable else None) rows with
      | s :: rest when List.exists (( <> ) s) rest ->
          fail "%s configurations produced different outputs" layer
      | _ -> ())
    [ "solver"; "search" ];
  List.iter
    (fun r ->
      let get k = List.assoc_opt k r.stable in
      let kernel = List.hd (String.split_on_char ' ' r.workload) in
      (match get "error" with
      | Some e -> fail "exec %s/%s: %s" r.workload r.config (Json.to_string e)
      | None -> ());
      if smoke then
        match (r.layer, get "winner", List.assoc_opt (kernel, r.config) expected_labels) with
        | "search", Some w, _ when w <> Json.String smoke_winner ->
            fail "smoke winner drifted: expected %S, got %s" smoke_winner (Json.to_string w)
        | "exec", _, Some want when get "label" <> Some (Json.String want) ->
            fail "smoke label drifted for %s/%s: expected %S" kernel r.config want
        | _ -> ())
    rows;
  List.rev !fails

let () =
  let speclist =
    [
      ("--jobs", Arg.Set_int jobs, "N worker domains for the parallel rows (default 2)");
      ("--smoke", Arg.Set smoke, " every layer small, timings masked, pinned outcomes asserted");
      ( "--guard",
        Arg.Set_string guard_path,
        "FILE fail if a row's stable fields drifted from FILE's or its cold_ms exceeds 2x FILE's" );
      ("-o", Arg.Set_string out_path, "FILE write the JSON report here (default: stdout)");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--jobs N] [--smoke] [--guard FILE] [-o FILE]";
  let scale = if !smoke then small else full in
  let rows = solver_rows ~scale @ search_rows ~scale @ exec_rows ~scale in
  let report = render ~timings:(not !smoke) rows in
  (match !out_path with
  | "" -> print_string report
  | path -> Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc report));
  (match failures ~smoke:!smoke rows with
  | [] -> ()
  | fs ->
      List.iter (fun f -> prerr_endline ("FAIL: " ^ f)) fs;
      exit 1);
  if !guard_path <> "" then
    let baseline = In_channel.with_open_bin !guard_path In_channel.input_all in
    match Inl_corpus.Bench.layer_guard ~baseline ~current:report with
    | Ok () ->
        Printf.printf "bench-guard PASS: %d rows stable, cold_ms within 2x\n" (List.length rows)
    | Error fs ->
        List.iter (fun f -> prerr_endline ("bench-guard FAIL: " ^ f)) fs;
        exit 1
