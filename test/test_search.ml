(* Unit and property tests for the transformation autotuner: the move
   enumerator's contract, the static cost tier, end-to-end search on the
   paper's Cholesky kernel, byte-level determinism across worker counts,
   a QCheck property over fuzz-generated programs — every emitted
   winner must be legal, pass translation validation, and be
   interpreter-equivalent to its source — and the pipeline driver's
   configuration, verdict and diagnostics-order decisions. *)

module Search = Inl_search.Search
module Job = Inl_search.Job
module Moves = Inl_search.Moves
module Reuse = Inl_reuse.Reuse
module Tf = Inl_fuzz.Tf
module Gen = Inl_fuzz.Gen
module Px = Inl_kernels.Paper_examples
module Interp = Inl_interp.Interp
module Verify = Inl_verify.Verify
module Diag = Inl_diag.Diag
module Pool = Inl_parallel.Pool
module Memo = Inl_diag.Memo
module Stats = Inl_diag.Stats
module Ast = Inl_ir.Ast
module Mat = Inl_linalg.Mat
module Layout = Inl_instance.Layout

let parse = Inl_ir.Parser.parse_exn

(* Small enough that a test-suite full of searches stays fast; the
   Cholesky searches below still recover the known-best order. *)
let tiny =
  {
    Search.default_config with
    Search.beam = 4;
    depth = 2;
    finalists = 3;
    size = 8;
    max_moves = 24;
    sim_max_steps = 400_000;
  }

(* ---- move enumeration ---- *)

let known_kinds = [ "interchange"; "reverse"; "skew"; "align"; "reorder" ]

let test_moves_contract () =
  let prog = parse Px.cholesky_kji in
  let moves = Moves.enumerate prog in
  Alcotest.(check bool) "non-empty" true (moves <> []);
  List.iter
    (fun steps ->
      Alcotest.(check bool) "move has steps" true (steps <> []);
      List.iter
        (fun (kind, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %s known" kind)
            true (List.mem kind known_kinds))
        steps;
      (* every enumerated move must either materialize or fail with a
         typed error — never an exception *)
      let ctx = Inl.analyze prog in
      match Tf.materialize ctx { Tf.steps = steps; partial = []; edits = [] } with
      | Ok _ | Error _ -> ())
    moves;
  Alcotest.(check (list (list (pair string string))))
    "deterministic" moves
    (Moves.enumerate (parse Px.cholesky_kji))

let test_moves_cover_depths () =
  (* kji Cholesky has one loop pair per imperfect branch: interchanges
     and skews must appear for nested pairs, reversals for every loop;
     the wavefront compound (skew then interchange) rides every pair *)
  let moves = Moves.enumerate (parse Px.cholesky_kji) in
  let kinds = List.sort_uniq compare (List.map fst (List.concat moves)) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "has %s" k) true (List.mem k kinds))
    [ "interchange"; "reverse"; "skew"; "align" ];
  Alcotest.(check bool)
    "has wavefront compound" true
    (List.exists
       (fun steps ->
         match steps with [ ("skew", _); ("interchange", _) ] -> true | _ -> false)
       moves)

(* ---- static cost tier ---- *)

let structure_of ctx m =
  match Inl.check ctx m with
  | Inl.Legality.Legal { structure; _ } -> structure
  | Inl.Legality.Illegal r -> Alcotest.failf "expected legal: %s" r

let test_static_score_orders_variants () =
  (* the static tier must at least separate the classical orders: jik
     (dot-product inner loops, unit-stride last subscripts) scores
     strictly better than kji (column-oriented, stride-N inner axis) *)
  let score src =
    let ctx = Inl.analyze (parse src) in
    let n = Layout.size ctx.Inl.layout in
    Reuse.static_score ctx (structure_of ctx (Mat.identity n))
  in
  let kji = score Px.cholesky_kji and jik = score Px.cholesky_jik in
  Alcotest.(check bool)
    (Printf.sprintf "jik %.1f < kji %.1f" jik kji)
    true (jik < kji);
  Alcotest.(check bool) "scores positive" true (jik > 0.0 && kji > 0.0)

(* ---- end-to-end on the paper kernel ---- *)

let test_optimize_cholesky () =
  let ctx = Inl.analyze (parse Px.cholesky_kji) in
  let o = Search.optimize ~config:{ tiny with Search.size = 16 } ctx in
  Alcotest.(check bool) "no errors" false (Diag.has_errors o.Search.diags);
  let w = match o.Search.winner with Some w -> w | None -> Alcotest.fail "no winner" in
  (match (w.Search.misses, o.Search.source_misses) with
  | Some wm, Some sm ->
      Alcotest.(check bool) (Printf.sprintf "winner %d <= source %d" wm sm) true (wm <= sm)
  | _ -> Alcotest.fail "trace tier did not run");
  Alcotest.(check bool) "funnel counted work" true
    (o.Search.funnel.Search.generated > 0
    && o.Search.funnel.Search.scored > 0
    && o.Search.funnel.Search.simulated > 0);
  (* the winner is a real program, equivalent to the source *)
  let wp = match w.Search.program with Some p -> p | None -> Alcotest.fail "winner has no code" in
  List.iter
    (fun n ->
      match Interp.equivalent ~max_steps:400_000 ctx.Inl.program wp ~params:[ ("N", n) ] with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "not equivalent at N=%d: %s" n msg)
    [ 4; 7 ]

let render (o : Search.outcome) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (e : Search.entry) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %.6f %s %s\n%s" e.Search.rank
           (Tf.to_string e.Search.recipe)
           e.Search.static_score
           (match e.Search.misses with Some m -> string_of_int m | None -> "-")
           (match e.Search.accesses with Some a -> string_of_int a | None -> "-")
           (match e.Search.program with Some p -> Inl.Pp.program_to_string p | None -> "")))
    o.Search.entries;
  Buffer.add_string b
    (match o.Search.winner with
    | Some w -> "winner " ^ Tf.to_string w.Search.recipe
    | None -> "no winner");
  Buffer.contents b

let test_optimize_deterministic_across_jobs () =
  let run jobs =
    Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs 1)
      (fun () -> render (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji))))
  in
  let r1 = run 1 in
  Alcotest.(check string) "jobs=1 repeatable" r1 (run 1);
  Alcotest.(check string) "jobs=4 identical to jobs=1" r1 (run 4)

(* ---- delta legality agrees with the full check ---- *)

let verdicts_agree ~what full delta =
  match (full, delta) with
  | ( Inl.Legality.Legal { unsatisfied = ua; _ },
      Inl.Legality.Legal { unsatisfied = ub; _ } ) ->
      let ids v = List.map Inl.Legality.dep_id v in
      if ids ua <> ids ub then QCheck2.Test.fail_reportf "%s: unsatisfied sets differ" what
  | Inl.Legality.Illegal ra, Inl.Legality.Illegal rb ->
      if not (String.equal ra rb) then
        QCheck2.Test.fail_reportf "%s: offenders differ: %s vs %s" what ra rb
  | Inl.Legality.Legal _, Inl.Legality.Illegal r ->
      QCheck2.Test.fail_reportf "%s: full says legal, delta says illegal: %s" what r
  | Inl.Legality.Illegal r, Inl.Legality.Legal _ ->
      QCheck2.Test.fail_reportf "%s: full says illegal (%s), delta says legal" what r

(* The search's soundness rests on check_env with a parent summary being
   indistinguishable from a from-scratch check: same verdict, same
   unsatisfied set, same first offender.  Exercised exactly the way the
   beam uses it — identity -> one move -> a second move over
   fuzz-generated programs. *)
let delta_prop (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let ctx = Inl.analyze prog in
  let env = Inl.Legality.make_env ctx.Inl.layout ctx.Inl.deps in
  let mat steps = Tf.materialize ctx { Tf.steps; partial = []; edits = [] } in
  let _, id_summary = Inl.Legality.check_env env (Mat.identity (Layout.size ctx.Inl.layout)) in
  let step_line steps = String.concat "; " (List.map (fun (k, s) -> k ^ " " ^ s) steps) in
  let moves = List.filteri (fun i _ -> i < 8) (Moves.enumerate prog) in
  let parents =
    List.filter_map
      (fun steps ->
        match mat steps with
        | Error _ -> None
        | Ok m ->
            let delta, summary = Inl.Legality.check_env ?parent:id_summary env m in
            verdicts_agree ~what:(step_line steps) (Inl.check ctx m) delta;
            Option.map (fun y -> (steps, y)) summary)
      moves
  in
  List.iter
    (fun (steps1, parent) ->
      List.iter
        (fun steps2 ->
          match mat (steps1 @ steps2) with
          | Error _ -> ()
          | Ok m ->
              verdicts_agree
                ~what:(step_line (steps1 @ steps2))
                (Inl.check ctx m)
                (fst (Inl.Legality.check_env ~parent env m)))
        moves)
    (List.filteri (fun i _ -> i < 3) parents);
  true

let delta_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"delta legality agrees with the full check" ~count:25
       QCheck2.Gen.(pair (int_bound 4) (int_bound 23))
       delta_prop)

(* ---- the memo registry ---- *)

let lookups () =
  List.map (fun (name, (s : Memo.stats)) -> (name, s.Memo.hits + s.Memo.misses)) (Memo.all_stats ())

let test_no_cache_bypasses_memos () =
  let run () = render (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji))) in
  let reference = run () in
  Memo.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Memo.set_enabled true)
    (fun () ->
      let before = lookups () in
      let off = run () in
      Alcotest.(check string) "identical outcome without the memos" reference off;
      Alcotest.(check (list (pair string int))) "every registered memo untouched" before
        (lookups ()))

(* The corpus rule "every attempt starts cold": after [Memo.clear_all] a
   search replays the same lookups against the same (empty) tables, so
   every registered memo sees the same hits and misses and the search
   the same funnel counters. *)
let test_clear_all_is_cold () =
  let jobs = Pool.requested_jobs () in
  Pool.set_jobs 1;
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs jobs)
    (fun () ->
      let run () =
        Memo.clear_all ();
        let snap = Stats.snapshot () in
        ignore (Search.optimize ~config:tiny (Inl.analyze (parse Px.cholesky_kji)));
        let search_counters =
          List.filter
            (fun (name, _) -> String.length name > 7 && String.sub name 0 7 = "search.")
            (snd (Stats.since snap))
        in
        ( List.map
            (fun (name, (s : Memo.stats)) -> (name, (s.Memo.hits, s.Memo.misses)))
            (Memo.all_stats ()),
          search_counters )
      in
      let memos1, counters1 = run () in
      let memos2, counters2 = run () in
      Alcotest.(check (list string)) "every memo registered"
        [
          "completion memo"; "extents memo"; "legality memo"; "projection cache"; "reuse memo";
          "signature memo"; "steps memo"; "trace memo";
        ]
        (List.sort compare (List.map fst memos1));
      Alcotest.(check bool) "the search used the memos" true
        (List.exists (fun (_, (h, m)) -> h + m > 0) memos1);
      Alcotest.(check (list (pair string (pair int int)))) "identical memo deltas" memos1 memos2;
      Alcotest.(check (list (pair string int))) "identical search counters" counters1 counters2)

(* ---- property: every winner is legal, validated, and equivalent ---- *)

let winner_prop (seed, index) =
  let prog, _ = Gen.case ~seed ~index in
  let ctx = Inl.analyze prog in
  match (Search.optimize ~config:{ tiny with Search.depth = 1; size = 6 } ctx).Search.winner with
  | None -> true (* nothing emitted: nothing to promise *)
  | Some w -> (
      (* legal under the exact test *)
      (match Tf.materialize ctx w.Search.recipe with
      | Error msg -> QCheck2.Test.fail_reportf "winner recipe does not materialize: %s" msg
      | Ok m -> (
          match Inl.check ctx m with
          | Inl.Legality.Legal _ -> ()
          | Inl.Legality.Illegal r -> QCheck2.Test.fail_reportf "winner illegal: %s" r));
      match w.Search.program with
      | None -> QCheck2.Test.fail_reportf "winner without code"
      | Some wp ->
          (* passes translation validation *)
          let report = Verify.run ~against:ctx.Inl.program wp in
          if Diag.has_errors (Verify.diags report) then
            QCheck2.Test.fail_reportf "winner fails verification";
          (* interpreter-equivalent at two small sizes *)
          List.for_all
            (fun n ->
              let params = List.map (fun p -> (p, n)) ctx.Inl.program.Ast.params in
              match Interp.equivalent ~max_steps:400_000 ctx.Inl.program wp ~params with
              | Ok () -> true
              | Error msg -> QCheck2.Test.fail_reportf "not equivalent at %d: %s" n msg)
            [ 2; 4 ])

let winner_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"search winners are legal, validated, equivalent" ~count:30
       QCheck2.Gen.(pair (int_bound 4) (int_bound 23))
       winner_prop)

(* ---- the pipeline driver ---- *)

let with_budget fm_work f =
  let saved = Inl.Omega.get_default_budget () in
  Inl.Omega.set_default_budget (Inl_diag.Budget.with_fm_work Inl_diag.Budget.default fm_work);
  Fun.protect ~finally:(fun () -> Inl.Omega.set_default_budget saved) f

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_job_overrides () =
  let c = Job.config ~base:tiny { Job.no_overrides with Job.beam = Some 2; seed = Some 5 } in
  Alcotest.(check (list int)) "overrides win, the rest is the base"
    [ 2; tiny.Search.depth; tiny.Search.finalists; tiny.Search.size; 5 ]
    [ c.Search.beam; c.Search.depth; c.Search.finalists; c.Search.size; c.Search.seed ];
  Alcotest.(check (list (option int))) "minimums"
    [ Some 1; Some 0; Some 1; Some 1; Some 0; None ]
    (List.map
       (fun k -> Option.map fst (Job.field k))
       [ "beam"; "depth"; "finalists"; "size"; "seed"; "budget" ])

let test_job_verdicts () =
  let ctx = Inl.analyze (parse Px.cholesky_kji) in
  let r = Job.optimize ~base:tiny Job.no_overrides ctx in
  let prog =
    match r.Job.outcome.Search.winner with
    | Some { Search.program = Some p; _ } -> p
    | _ -> Alcotest.fail "no winner"
  in
  let expect what name code (c : Job.checked) =
    Alcotest.(check string) what name (Job.verdict_name c.Job.verdict);
    Alcotest.(check int) (what ^ ": exit code") code (Job.verdict_code c.Job.verdict)
  in
  expect "winner" "verified" 0 (Job.verify ~against:ctx.Inl.program prog);
  let degraded = with_budget 10 (fun () -> Job.verify ~against:ctx.Inl.program prog) in
  expect "budget-degraded check" "incomplete" 2 degraded;
  Alcotest.(check bool) "degraded by V900" true (List.mem "V900" (codes degraded.Job.diags));
  (* the S2 loop starts one iteration late: dropped source instances *)
  let mutant = parse (replace_once ~sub:"K+1..N" ~by:"K+2..N" Px.cholesky_kji) in
  let failed = Job.verify ~against:ctx.Inl.program mutant in
  expect "mutant" "failed" 1 failed;
  Alcotest.(check bool) "dropped iterations (V101)" true (List.mem "V101" (codes failed.Job.diags));
  Alcotest.(check (option string)) "no verdict line" None (Job.verdict_line failed.Job.verdict)

let test_job_merges_analysis_first () =
  with_budget 10 (fun () ->
      let ctx = Inl.analyze (parse Px.cholesky_kji) in
      let r = Job.optimize ~base:tiny Job.no_overrides ctx in
      Alcotest.(check bool) "analysis degraded" true (ctx.Inl.diags <> []);
      Alcotest.(check bool) "search reported" true (r.Job.outcome.Search.diags <> []);
      Alcotest.(check (list string)) "analysis, then search"
        (codes ctx.Inl.diags @ codes r.Job.outcome.Search.diags)
        (codes r.Job.diags);
      Alcotest.(check string) "first is the analysis warning" "A201"
        (List.hd (codes r.Job.diags)))

let () =
  Alcotest.run "search"
    [
      ( "moves",
        [
          Alcotest.test_case "enumeration contract" `Quick test_moves_contract;
          Alcotest.test_case "covers the move kinds" `Quick test_moves_cover_depths;
        ] );
      ( "cost",
        [ Alcotest.test_case "static tier separates variants" `Quick test_static_score_orders_variants ] );
      ( "optimize",
        [
          Alcotest.test_case "cholesky end-to-end" `Quick test_optimize_cholesky;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_optimize_deterministic_across_jobs;
          Alcotest.test_case "--no-cache bypasses the memos" `Quick test_no_cache_bypasses_memos;
          Alcotest.test_case "clear_all starts every memo cold" `Quick test_clear_all_is_cold;
        ] );
      ( "driver",
        [
          Alcotest.test_case "overrides over the base" `Quick test_job_overrides;
          Alcotest.test_case "verdicts" `Quick test_job_verdicts;
          Alcotest.test_case "analysis diagnostics first" `Quick test_job_merges_analysis_first;
        ] );
      ("property", [ delta_property; winner_property ]);
    ]
