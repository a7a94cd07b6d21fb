(* Solver-core benchmark: measures what the memoized, parallel Omega
   core buys on the paper's full-Cholesky workload and emits a JSON
   report (BENCH_solver.json via `make bench-json`).

   One workload iteration = dependence analysis of LU and of the full
   Cholesky kernel (Section 2), the legality check of the corrected
   matrix C, completion from the paper's single partial row (Example
   12), code generation from the completed matrix, and translation
   validation of the generated program.  The workload renders every
   result into a byte buffer; the benchmark runs it under each
   configuration (memos off / on, jobs 1 / n) and fails loudly if any
   two configurations disagree on a single byte — speed that changes
   answers is not speed.

   `--smoke` runs one iteration of everything (wired into `dune
   runtest`) so the tier-1 gate exercises the same code path the real
   benchmark measures. *)

module Px = Inl_kernels.Paper_examples
module Mat = Inl.Mat
module Vec = Inl.Vec
module Pool = Inl.Pool
module Omega = Inl.Omega
module Memo = Inl_diag.Memo

let iterations = ref 24
let out_path = ref ""
let par_jobs = ref 4

let e12_partial () = [ Vec.of_int_list [ 0; 0; 0; 0; 0; 1; 0 ] ]

(* One full workload pass; everything observable goes into the buffer so
   configurations can be compared byte for byte. *)
let workload () : string =
  let buf = Buffer.create 65536 in
  for _ = 1 to !iterations do
    (* LU factorization: a second solver-heavy dependence analysis *)
    let lu = Inl.analyze_source Px.lu in
    List.iter (fun d -> Buffer.add_string buf (Format.asprintf "%a\n" Inl.Dep.pp d)) lu.Inl.deps;
    let ctx = Inl.analyze_source Px.cholesky in
    List.iter (fun d -> Buffer.add_string buf (Format.asprintf "%a\n" Inl.Dep.pp d)) ctx.Inl.deps;
    (match Inl.check ctx (Mat.of_int_lists Px.corrected_c_rows) with
    | Inl.Legality.Legal { unsatisfied; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "corrected C: legal, %d unsatisfied\n" (List.length unsatisfied))
    | Inl.Legality.Illegal msg -> Buffer.add_string buf ("corrected C: illegal: " ^ msg ^ "\n"));
    match Inl.complete_result ctx ~partial:(e12_partial ()) with
    | Error ds -> Buffer.add_string buf (Inl.Diag.list_to_string ds ^ "\n")
    | Ok m -> (
        Buffer.add_string buf (Format.asprintf "completed:\n%a\n" Mat.pp m);
        match Inl.transform ctx m with
        | Ok prog ->
            Buffer.add_string buf (Inl.Pp.program_to_string prog ^ "\n");
            (* translation validation of the generated code — the most
               projection-heavy phase of the pipeline *)
            let report = Inl_verify.Verify.run ~against:ctx.Inl.program prog in
            let ds = Inl_verify.Verify.diags report in
            Buffer.add_string buf
              (Printf.sprintf "verify: %d findings\n%s" (List.length ds)
                 (String.concat "" (List.map (fun d -> Inl.Diag.to_string d ^ "\n") ds)))
        | Error ds -> Buffer.add_string buf (Inl.Diag.list_to_string ds ^ "\n"))
  done;
  Buffer.contents buf

type config = { name : string; jobs : int; cache : bool }

type outcome = {
  config : config;
  effective_jobs : int;
  wall_s : float;
  solver_calls : int;
  cache_hit_rate : float;
  output : string;
}

let run_config (c : config) : outcome =
  Pool.set_jobs c.jobs;
  Memo.set_enabled c.cache;
  Memo.clear_all ();
  Omega.reset_solver_calls ();
  Inl.Stats.reset ();
  (* two passes, best wall time: suppresses scheduler noise; the memos
     are cleared once per configuration, so for cache-on configs the
     second pass measures the steady state the first pass built *)
  let t0 = Unix.gettimeofday () in
  let output = workload () in
  let pass1 = Unix.gettimeofday () -. t0 in
  let sat, proj = Omega.solver_calls () in
  let rate = Memo.hit_rate (Omega.cache_stats ()) in
  let t1 = Unix.gettimeofday () in
  let output2 = workload () in
  let pass2 = Unix.gettimeofday () -. t1 in
  if not (String.equal output output2) then (
    prerr_endline "FAIL: two passes of one configuration disagreed";
    exit 1);
  let wall_s = Float.min pass1 pass2 in
  {
    config = c;
    effective_jobs = Pool.jobs ();
    wall_s;
    solver_calls = sat + proj;
    cache_hit_rate = rate;
    output;
  }

let json_of_outcome (o : outcome) : string =
  Printf.sprintf
    "    {\"name\": %S, \"jobs\": %d, \"effective_jobs\": %d, \"cache\": %b, \"wall_s\": %.6f, \
     \"solver_calls\": %d, \"cache_hit_rate\": %.4f}"
    o.config.name o.config.jobs o.effective_jobs o.config.cache o.wall_s o.solver_calls
    o.cache_hit_rate

let () =
  let speclist =
    [
      ("--iterations", Arg.Set_int iterations, "N workload iterations per configuration");
      ("--jobs", Arg.Set_int par_jobs, "N worker domains for the parallel configurations");
      ( "--smoke",
        Arg.Unit (fun () -> iterations := 1),
        " single-iteration run for the test suite" );
      ("-o", Arg.Set_string out_path, "FILE write the JSON report here (default: stdout)");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_solver [--iterations N] [--jobs N] [--smoke] [-o FILE]";
  let configs =
    [
      { name = "cache-off-jobs1"; jobs = 1; cache = false };
      { name = "cache-on-jobs1"; jobs = 1; cache = true };
      { name = Printf.sprintf "cache-on-jobs%d" !par_jobs; jobs = !par_jobs; cache = true };
    ]
  in
  let outcomes = List.map run_config configs in
  let baseline = List.hd outcomes in
  let best = List.nth outcomes (List.length outcomes - 1) in
  let equal =
    List.for_all (fun o -> String.equal o.output baseline.output) outcomes
  in
  let speedup = if best.wall_s > 0.0 then baseline.wall_s /. best.wall_s else 0.0 in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": \"lu+full-cholesky analyze + legality + E12 completion + codegen + verify\",\n\
      \  \"iterations\": %d,\n\
      \  \"configs\": [\n\
       %s\n\
      \  ],\n\
      \  \"outputs_byte_equal\": %b,\n\
      \  \"speedup\": %.2f\n\
       }\n"
      !iterations
      (String.concat ",\n" (List.map json_of_outcome outcomes))
      equal speedup
  in
  (match !out_path with
  | "" -> print_string json
  | path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc);
  if not equal then (
    prerr_endline "FAIL: configurations produced different outputs";
    exit 1)
