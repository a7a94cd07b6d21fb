(* Execution benchmark: wall-clock of real (domain-parallel) runs of
   DOALL schedules, emitting BENCH_exec.json via `make exec-bench`.

   Each row executes one (kernel, schedule) pair through the exec
   runtime: the sequential interpreter and the planned parallel
   execution are both timed min-of-N, and no timing is reported for a
   row whose parallel store is not byte-identical to the sequential one
   (the runtime's differential gate).  The schedule column is the
   point: seidel1d has no DOALL dimension at identity (the row records
   the typed degradation), and the same kernel under the wavefront
   recipe (skew the time loop into the space loop, then interchange)
   gains an inner parallel dimension — the classic transformation,
   executed rather than claimed.

   The report is honest about hardware: it prints the detected core
   count next to the requested worker count, and on a single-core box
   the parallel rows are a determinism check, not a speedup claim.

   `--smoke` (wired into `dune runtest` and `make exec-smoke`) asserts
   the pinned per-row outcome labels — plan and differential verdict,
   never wall time — with all timings masked, so the tier-1 gate stays
   byte-deterministic.

   `--guard FILE` (wired into `make exec-guard` and the opt-in
   `@exec-guard` dune alias) re-runs the workload and fails if any
   row's label, DOALL count or plan drifted from the committed FILE;
   wall-clock fields are never compared. *)

module Px = Inl_kernels.Paper_examples
module Search = Inl_search.Search
module Tf = Inl_fuzz.Tf
module Exec = Inl_exec.Exec
module Doall = Inl_verify.Doall
module Json = Inl_serve.Json

let out_path = ref ""
let jobs = ref 2
let repeat = ref 3
let size = ref 64
let smoke = ref false
let guard_path = ref ""

(* ---- workload ---- *)

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

(* the `make search-smoke` search configuration: the winner this finds
   is the one bench_search pins, and here it is executed for real *)
let search_config =
  { Search.default_config with Search.beam = 4; depth = 2; finalists = 3; size = 16 }

let search_winner src =
  let ctx = Inl.analyze_source src in
  let o = Search.optimize ~config:search_config ctx in
  match o.Search.winner with
  | Some w -> (
      match w.Search.program with
      | Some p -> (Search.recipe_line w.Search.recipe, p)
      | None -> failwith "search winner has no program")
  | None -> failwith "search found no winner"

type row = { name : string; schedule : string; prog : Inl.Ast.program }

let rows () =
  let winner_recipe, winner_prog = search_winner Px.cholesky_kji in
  [
    { name = "cholesky"; schedule = "identity"; prog = transformed Px.cholesky_kji [] };
    { name = "cholesky"; schedule = "search:" ^ winner_recipe; prog = winner_prog };
    { name = "jacobi1d"; schedule = "identity"; prog = transformed jacobi1d [] };
    { name = "jacobi1d"; schedule = "wavefront(f=2)"; prog = transformed jacobi1d wavefront };
    { name = "seidel1d"; schedule = "identity"; prog = transformed seidel1d [] };
    { name = "seidel1d"; schedule = "wavefront(f=2)"; prog = transformed seidel1d wavefront };
  ]

(* pinned by --smoke: the plan and differential verdict for every row,
   wall-time-free by construction *)
let expected_labels =
  [
    ("cholesky/identity", "ok:doall=I");
    ("jacobi1d/identity", "ok:doall=I");
    ("jacobi1d/wavefront(f=2)", "ok:doall=t2");
    ("seidel1d/identity", "degraded:X901");
    ("seidel1d/wavefront(f=2)", "ok:doall=t2");
  ]

type result_row = {
  row : row;
  label : string;
  report : (Exec.report, Inl_diag.Diag.t list) result;
}

let run_row r =
  let params = List.map (fun p -> (p, !size)) r.prog.Inl.Ast.params in
  let report = Exec.benchmark ~jobs:!jobs ~repeat:!repeat r.prog ~params in
  { row = r; label = Exec.label report; report }

let json_of_row ~timings (rr : result_row) =
  let jstr s = Json.to_string (Json.String s) in
  let common =
    Printf.sprintf "\"name\": %s, \"schedule\": %s, \"label\": %s" (jstr rr.row.name)
      (jstr rr.row.schedule) (jstr rr.label)
  in
  match rr.report with
  | Error _ -> Printf.sprintf "    {%s}" common
  | Ok r ->
      let ms v = if timings then Printf.sprintf "%.3f" v else "0.0" in
      Printf.sprintf
        "    {%s, \"plan\": %s, \"doall\": %d, \"loops\": %d, \"cells\": %d, \"seq_ms\": %s, \
         \"par_ms\": %s, \"speedup\": %s}"
        common
        (jstr (match Exec.plan_var r.Exec.plan with Some v -> "par:" ^ v | None -> "seq"))
        (Exec.doall_count r.Exec.doall) r.Exec.loops r.Exec.cells (ms r.Exec.seq_ms)
        (ms r.Exec.par_ms)
        (if timings then Printf.sprintf "%.2f" (Exec.speedup r) else "0.0")

(* ---- drift guard: compare against a committed report ---- *)

let stable_fields = [ "label"; "plan"; "doall"; "loops" ]

let run_guard ~path ~count current =
  let baseline = In_channel.with_open_bin path In_channel.input_all in
  let key r =
    match (Json.string_field "name" r, Json.string_field "schedule" r) with
    | Some n, Some s -> Some (n ^ "/" ^ s)
    | _ -> None
  in
  match
    Inl_corpus.Bench.drift ~list:"rows" ~key ~noun:"row" ~fields:stable_fields ~baseline ~current
  with
  | Ok () -> Printf.printf "exec-guard PASS: %d rows stable\n" count
  | Error fs ->
      List.iter (fun f -> Printf.eprintf "exec-guard FAIL: %s\n" f) fs;
      exit 1

let () =
  let speclist =
    [
      ("--jobs", Arg.Set_int jobs, "N worker domains for the parallel execution (default 2)");
      ("--repeat", Arg.Set_int repeat, "K timing runs per variant, minimum reported (default 3)");
      ("--size", Arg.Set_int size, "N problem size every parameter is bound to (default 64)");
      ("--smoke", Arg.Set smoke, " mask timings and assert the pinned per-row labels");
      ( "--guard",
        Arg.Set_string guard_path,
        "FILE fail if any row's label/plan/doall drifted from the committed FILE" );
      ("-o", Arg.Set_string out_path, "FILE write the JSON report here (default: stdout)");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_exec [--jobs N] [--repeat K] [--size N] [--smoke] [--guard FILE] [-o FILE]";
  if !smoke then begin
    (* small and fixed: the smoke gate pins shape, never speed *)
    size := 16;
    repeat := 1
  end;
  let results = List.map run_row (rows ()) in
  let timings = not !smoke in
  let cores = Domain.recommended_domain_count () in
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"inl-exec-bench-v1\",\n\
      \  \"cores\": %d,\n\
      \  \"jobs\": %d,\n\
      \  \"repeat\": %d,\n\
      \  \"size\": %d,\n\
      \  \"timings\": %b,\n\
      \  \"rows\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      cores !jobs !repeat !size timings
      (String.concat ",\n" (List.map (json_of_row ~timings) results))
  in
  (match !out_path with
  | "" -> print_string json
  | path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc);
  (* every row must pass the differential gate (or degrade with a
     typed note); an X801 divergence is a bench failure outright *)
  List.iter
    (fun rr ->
      match rr.report with
      | Error ds ->
          Printf.eprintf "FAIL: %s/%s: %s\n" rr.row.name rr.row.schedule
            (Inl_diag.Diag.list_to_string ds);
          exit 1
      | Ok _ -> ())
    results;
  if !smoke then
    List.iter
      (fun (key, expected) ->
        match
          List.find_opt (fun rr -> rr.row.name ^ "/" ^ rr.row.schedule = key) results
        with
        | None -> ()
        | Some rr ->
            if rr.label <> expected then begin
              Printf.eprintf "FAIL: smoke label drifted for %s: expected %S, got %S\n" key
                expected rr.label;
              exit 1
            end)
      expected_labels;
  if !guard_path <> "" then run_guard ~path:!guard_path ~count:(List.length results) json
