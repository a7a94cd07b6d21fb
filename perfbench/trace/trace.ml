(* The traced run of the perfbench benchmark.

   Replays a plan of operations (written by perfbench/run.py) in-process,
   calling each layer's public functions in the order the inltool front
   ends call them, and records a span (name, start, end, parent) around
   every call.  Phase totals the library already keeps
   ({!Inl_diag.Stats}) become derived child spans of the call that ran
   them, so the self times of one operation's spans add up to its wall
   time.  Spans and per-operation counters stay in memory and are written
   to one JSON file when the run ends; run.py turns them into the
   per-layer metrics.

     trace.exe PLAN OUT SECONDS JOBS

   PLAN has one tab-separated operation per line:

     optimize CLASS ROUND KERNEL.loop PREFIX OPT-WARNING|- VERIFY-WARNING|-
     serve    CLASS ROUND SIZE REQUEST-JSON
     run      CLASS ROUND KERNEL.loop N RECIPE.tf|- EXPECTED-LABEL

   The warnings name the code an optimize (or the verify of its winner
   against the source) may degrade with, as the CLI's exit 2; the
   expected label of a run row is ok or degraded:CODE.

   Operations of even rounds are traced, odd rounds run with the recorder
   off (only their wall time is kept), which gives the tracing overhead.
   The run stops at the first round boundary after SECONDS. *)

module Ast = Inl.Ast
module Search = Inl_search.Search
module Reuse = Inl_reuse.Reuse
module Memo = Inl_diag.Memo
module Stats = Inl_diag.Stats
module Server = Inl_serve.Server
module Json = Inl_serve.Json
module Exec = Inl_exec.Exec
module Interp = Inl_interp.Interp
module Cachesim = Inl_cachesim.Cachesim
module Tf = Inl_fuzz.Tf
module Omega = Inl.Omega
module Diag = Inl_diag.Diag
module Verify = Inl_verify.Verify

let now = Unix.gettimeofday

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ---- the span recorder ---- *)

type span = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

(* A span handle: its id and start, for attaching derived children once
   the operation has ended. *)
type handle = { hid : int; ht0 : float }

let spans : span list ref = ref []
let next_id = ref 0
let open_spans = ref [ 0 ] (* innermost first; 0 = the operation has no parent *)
let current_op = ref 0
let tracing = ref true

let span name f =
  if not !tracing then (f (), { hid = 0; ht0 = 0. })
  else begin
    incr next_id;
    let id = !next_id and parent = List.hd !open_spans in
    open_spans := id :: !open_spans;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        open_spans := List.tl !open_spans;
        spans := { id; parent; op = !current_op; name; t0; t1 } :: !spans)
      (fun () -> (f (), { hid = id; ht0 = t0 }))
  end

let traced name f = fst (span name f)

(* A derived span: a duration the library measured inside a recorded
   call (or a probe of the same work), placed at its parent's start. *)
type derived = D of string * float * derived list

let rec attach h = function
  | [] -> ()
  | D (name, dur, kids) :: rest when !tracing && h.hid > 0 ->
      incr next_id;
      let id = !next_id in
      spans := { id; parent = h.hid; op = !current_op; name; t0 = h.ht0; t1 = h.ht0 +. dur } :: !spans;
      attach { hid = id; ht0 = h.ht0 } kids;
      attach h rest
  | _ -> ()

(* Phase totals accumulated since [snap], as derived spans.  The
   simulate phase carries the interpreter's share of it as a child,
   estimated by [interp_share] (see {!probe}).  [search] phases are
   nested under a search.optimize span unless the caller records that
   span itself. *)
let phase_spans ?(interp_share = 0.) ?(with_search = false) snap =
  let phases, _ = Stats.since snap in
  let get p = List.fold_left (fun acc (n, dt, _) -> if n = p then acc +. dt else acc) 0. phases in
  let leaf name p = if get p > 0. then [ D (name, get p, []) ] else [] in
  let sim = get "simulate" in
  let inner =
    (if sim > 0. then [ D ("cachesim.simulate", sim, [ D ("interp.run", sim *. interp_share, []) ]) ]
     else [])
    @ leaf "core.codegen" "codegen" @ leaf "core.completion" "completion"
    @ leaf "core.legality" "legality" @ leaf "verify.validate" "verify"
  in
  if with_search && get "search" > 0. then
    leaf "depend.analyze" "analysis" @ [ D ("search.optimize", get "search", inner) ]
  else leaf "depend.analyze" "analysis" @ inner

(* ---- probes: the same work as a recorded call, measured outside the
   operation ---- *)

(* Seconds [f] takes, best of three: the microsecond-scale probes
   (JSON, parsing) must not carry a stray pause into the split. *)
let quick_time f =
  let once () =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    now () -. t0
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

type probe = { share : float; interp_s : float; instances : int; accesses : int }

let probes : (string, probe) Hashtbl.t = Hashtbl.create 16

(* Array extents (inclusive upper bound per dimension) read off a final
   store, which records every cell the program touched. *)
let extents (store : Interp.store) =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (name, idx) _ ->
      let cur = Option.value (Hashtbl.find_opt tbl name) ~default:(List.map (fun _ -> 0) idx) in
      Hashtbl.replace tbl name (List.map2 max cur idx))
    store;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The interpreter's share of one cache simulation of [prog] at [size],
   its time per statement instance, and the simulation's access count.
   Cached per program text and size: it is deterministic work. *)
let probe (prog : Ast.program) size =
  let key = Printf.sprintf "%d|%s" size (Inl.Pp.program_to_string prog) in
  match Hashtbl.find_opt probes key with
  | Some p -> p
  | None ->
      let params = List.map (fun p -> (p, size)) prog.Ast.params in
      let t0 = now () in
      let store = Interp.run prog ~params in
      let interp_s = now () -. t0 in
      let t0 = now () in
      let sim =
        Cachesim.simulate_program Search.default_config.Search.cache (extents store) prog ~params
      in
      let sim_s = now () -. t0 in
      let p =
        {
          share = (if sim_s > 0. then Float.min 1.0 (interp_s /. sim_s) else 0.);
          interp_s;
          instances = Interp.operation_count prog ~params;
          accesses = sim.Cachesim.accesses;
        }
      in
      Hashtbl.replace probes key p;
      p

(* ---- counters ---- *)

let memo_counts () =
  let c = Omega.cache_stats () in
  let m name (s : Memo.stats) = [ (name ^ ".hits", s.Memo.hits); (name ^ ".misses", s.Memo.misses) ] in
  let inh, chk = Inl.Legality.delta_stats () in
  let sat, proj = Omega.solver_calls () in
  [ ("presburger.hits", c.Inl.Cache.hits); ("presburger.misses", c.Inl.Cache.misses) ]
  @ m "legality" (Inl.Legality.memo_stats ())
  @ m "reuse" (Reuse.memo_stats ())
  @ m "trace" (Search.trace_cache_stats ())
  @ m "mat" (Search.mat_cache_stats ())
  @ m "completion" (Search.completion_cache_stats ())
  @ [ ("delta.inherited", inh); ("delta.checked", chk); ("solver.calls", sat + proj) ]

let memo_delta before after =
  List.map2 (fun (k, a) (_, b) -> ("memo." ^ k, Json.Int (b - a))) before after

let probe_counters p =
  [
    ("probe.accesses", Json.Int p.accesses);
    ("probe.instances", Json.Int p.instances);
    ("probe.interp_s", Json.Float p.interp_s);
  ]

let funnel_counters (o : Search.outcome) =
  let f = o.Search.funnel in
  [
    ("search.candidates", Json.Int f.Search.generated);
    ("search.illegal", Json.Int f.Search.illegal);
    ("search.reuse_pruned", Json.Int f.Search.reuse_pruned);
  ]

let parse_exn src =
  match Inl.Parser.parse src with Ok p -> p | Error m -> failwith ("parse: " ^ m)

(* Whether DS would give the CLI's exit 0, or exit 2 with the warning
   WARNING the operation is expected to degrade with ("-" for none). *)
let clean_or_degraded ~warning ds =
  match Diag.exit_code ds with
  | 0 -> true
  | 2 -> List.exists (fun (d : Diag.t) -> d.Diag.code = warning) ds
  | _ -> false

(* ---- operations ----

   Each operation is prepared outside its timed span (probes), runs
   inside it, and returns a check that runs after the span has ended:
   whether its output is right, and its counters. *)

type check = unit -> bool * (string * Json.t) list

(* inltool optimize FILE: load (parse + analyze), Search.config_for,
   Search.optimize, write PREFIX.loop and PREFIX.tf.  The check is the
   CLI's: the diagnostics give exit 0 (or 2 with the expected warning),
   and PREFIX.loop passes `inltool verify --against` the source. *)
let optimize_op ~path ~prefix ~opt_warning ~verify_warning : unit -> check =
  let pr = probe (parse_exn (read_file path)) Search.default_config.Search.size in
  fun () ->
    let src = read_file path in
    let prog = traced "ir.parse" (fun () -> parse_exn src) in
    let ctx = traced "depend.analyze" (fun () -> Inl.analyze prog) in
    let config = Search.config_for ctx in
    let snap = Stats.snapshot () in
    let o, h = span "search.optimize" (fun () -> Search.optimize ~config ctx) in
    let winner =
      match o.Search.winner with
      | Some ({ Search.program = Some p; _ } as w) ->
          write_file (prefix ^ ".loop") (Inl.Pp.program_to_string p ^ "\n");
          write_file (prefix ^ ".tf") (Tf.to_string w.Search.recipe);
          Some w
      | _ -> None
    in
    fun () ->
      (* before the check's own verify adds to the phase totals *)
      attach h (phase_spans ~interp_share:pr.share snap);
      let verified () =
        let report = Verify.run ~against:prog (parse_exn (read_file (prefix ^ ".loop"))) in
        clean_or_degraded ~warning:verify_warning (Verify.diags report)
      in
      ( winner <> None
        && clean_or_degraded ~warning:opt_warning o.Search.diags
        && verified (),
        [ ("depend.deps", Json.Int (List.length ctx.Inl.deps)) ]
        @ probe_counters pr
        @ [
          ( "winner",
            Json.String
              (match winner with Some w -> Search.recipe_line w.Search.recipe | None -> "-") );
          ( "miss_ratio",
            match (winner, o.Search.source_misses) with
            | Some { Search.misses = Some m; _ }, Some s when s > 0 ->
                Json.Float (float_of_int m /. float_of_int s)
            | _ -> Json.Null );
        ]
        @ funnel_counters o )

(* One serve request through Server.handle, the daemon's per-line entry
   point.  JSON decoding/encoding and program parsing happen inside
   handle; they are probed outside it on the same text and attached as
   children, so the handler's own time is what is left. *)
let serve_op server ~size line : unit -> check =
  let req = Json.parse line in
  let json_in = quick_time (fun () -> Json.parse line) in
  let programs =
    match req with
    | Ok r -> List.filter_map (fun k -> Json.string_field k r) [ "program"; "against" ]
    | Error _ -> []
  in
  let parsed = List.map Inl.Parser.parse programs in
  let parse_s = quick_time (fun () -> List.map Inl.Parser.parse programs) in
  let pr =
    match (req, parsed) with
    | Ok r, Ok p :: _ when Json.string_field "method" r = Some "optimize" -> Some (probe p size)
    | _ -> None
  in
  fun () ->
    let snap = Stats.snapshot () in
    let resp, h = span "serve.handle" (fun () -> Server.handle server line) in
    fun () ->
      let parsed_resp = Json.parse resp in
      let json_out =
        match parsed_resp with Ok j -> quick_time (fun () -> Json.to_string j) | Error _ -> 0.
      in
      let share = match pr with Some p -> p.share | None -> 0. in
      attach h
        ([ D ("serve.json", json_in +. json_out, []); D ("ir.parse", parse_s, []) ]
        @ phase_spans ~interp_share:share ~with_search:true snap);
      let field k = match parsed_resp with Ok j -> Json.member k j | Error _ -> None in
      let result = Option.value (field "result") ~default:Json.Null in
      let verdict = Option.value (Json.string_field "verdict" result) ~default:"-" in
      let _, counters = Stats.since snap in
      ( field "ok" = Some (Json.Bool true) && verdict <> "failed",
        [ ("verdict", Json.String verdict) ]
        @ (match Json.int_field "dependences" result with
          | Some n -> [ ("depend.deps", Json.Int n) ]
          | None -> [])
        @
        match pr with
        | Some p ->
            [ ("winner", Option.value (Json.member "winner" result) ~default:Json.Null) ]
            @ probe_counters p
            @ List.filter_map
                (fun (k, name) ->
                  Option.map (fun v -> (name, Json.Int v)) (List.assoc_opt k counters))
                [
                  ("search.generated", "search.candidates");
                  ("search.pruned-illegal", "search.illegal");
                  ("search.reuse.pruned", "search.reuse_pruned");
                ]
        | None -> [] )

(* inltool run FILE -N n --threads J --repeat 1 [--recipe R.tf]: load or
   parse, materialize and transform under the recipe, then the steps of
   Exec.benchmark: DOALL analysis, plan, sequential reference, planned
   execution, differential gate. *)
let run_op ~path ~n ~recipe ~jobs ~expect : unit -> check =
 fun () ->
  let src = read_file path in
  let transformed = ref None in
  let prog =
    match recipe with
    | None -> traced "ir.parse" (fun () -> parse_exn src)
    | Some rpath -> (
        let p = traced "ir.parse" (fun () -> parse_exn src) in
        let ctx = traced "depend.analyze" (fun () -> Inl.analyze p) in
        let m =
          traced "core.materialize" (fun () ->
              match Tf.of_string (read_file rpath) with
              | Error msg -> failwith msg
              | Ok r -> ( match Tf.materialize ctx r with Ok m -> m | Error msg -> failwith msg))
        in
        let snap = Stats.snapshot () in
        let r, h = span "core.transform" (fun () -> Inl.transform ctx m) in
        transformed := Some (h, snap);
        match r with Ok p -> p | Error ds -> failwith (Inl.Diag.list_to_string ds))
  in
  let params = List.map (fun p -> (p, n)) prog.Ast.params in
  let doall = traced "exec.doall" (fun () -> Exec.analyze prog) in
  let plan = Exec.choose doall in
  let seq =
    traced "interp.run" (fun () -> Exec.execute ~jobs:1 ~plan:(Exec.Seq None) prog ~params)
  in
  let par = traced "exec.par" (fun () -> Exec.execute ~jobs ~plan prog ~params) in
  let gate = traced "exec.gate" (fun () -> Interp.store_diff seq par) in
  fun () ->
    Option.iter (fun (h, snap) -> attach h (phase_spans snap)) !transformed;
    let label =
      match (gate, plan) with
      | Error _, _ -> "error:X801"
      | Ok (), Exec.Par { var; _ } -> "ok:doall=" ^ var
      | Ok (), Exec.Seq None -> "ok:seq"
      | Ok (), Exec.Seq (Some d) -> "degraded:" ^ d.Inl.Diag.code
    in
    let nonfinite =
      Hashtbl.fold (fun _ v acc -> if Float.is_finite v then acc else acc + 1) seq 0
    in
    let expected =
      if expect = "ok" then String.starts_with ~prefix:"ok:" label else label = expect
    in
    ( Result.is_ok gate && expected,
      [
        ("label", Json.String label);
        ("exec.cells", Json.Int (Hashtbl.length seq));
        ("exec.nonfinite", Json.Int nonfinite);
        ("interp.instances", Json.Int (Interp.operation_count prog ~params));
        ("parallel.effective_jobs", Json.Int (Inl.Pool.jobs ()));
      ] )

(* ---- the plan loop ---- *)

let clear_process_memos () =
  Omega.clear_cache ();
  Inl.Legality.clear_memo ();
  Reuse.clear_memo ();
  Search.clear_process_memos ()

let run_line server ~jobs ~n kind args line =
  let prepared =
    match (kind, args) with
    | "optimize", [ path; prefix; opt_warning; verify_warning ] ->
        clear_process_memos ();
        optimize_op ~path ~prefix ~opt_warning ~verify_warning
    | "serve", [ size; req ] -> serve_op server ~size:(int_of_string size) req
    | "run", [ path; size; recipe; expect ] ->
        run_op ~path ~n:(int_of_string size)
          ~recipe:(if recipe = "-" then None else Some recipe)
          ~jobs ~expect
    | _ -> failwith ("bad plan line: " ^ line)
  in
  current_op := n;
  let before = memo_counts () in
  let t0 = now () in
  let check = traced "op" prepared in
  let wall_ms = (now () -. t0) *. 1000. in
  let after = memo_counts () in
  let ok, counters = check () in
  (ok, [ ("wall_ms", Json.Float wall_ms) ] @ counters @ memo_delta before after)

let () =
  match Sys.argv with
  | [| _; plan_path; out_path; seconds; jobs |] ->
      let seconds = float_of_string seconds and jobs = int_of_string jobs in
      Inl.Pool.set_jobs jobs;
      Omega.set_default_budget Inl.Budget.default;
      Inl.Faults.install Inl.Faults.none;
      let server =
        match Server.create { Server.default_config with Server.socket = None; state_dir = None } with
        | Ok s -> s
        | Error m -> failwith m
      in
      let lines = String.split_on_char '\n' (read_file plan_path) |> List.filter (( <> ) "") in
      let start = now () in
      let ops = ref [] in
      let rec loop n last_round = function
        | [] -> ()
        | line :: rest -> (
            match String.split_on_char '\t' line with
            | kind :: cls :: round :: args ->
                let round = int_of_string round in
                if round <> last_round && now () -. start >= seconds then ()
                else begin
                  tracing := round mod 2 = 0;
                  let ok, fields =
                    match run_line server ~jobs ~n kind args line with
                    | r -> r
                    | exception e -> (false, [ ("error", Json.String (Printexc.to_string e)) ])
                  in
                  ops :=
                    Json.Obj
                      ([
                         ("op", Json.Int n);
                         ("kind", Json.String kind);
                         ("class", Json.String cls);
                         ("round", Json.Int round);
                         ("traced", Json.Bool !tracing);
                         ("ok", Json.Bool ok);
                       ]
                      @ fields)
                    :: !ops;
                  loop (n + 1) round rest
                end
            | _ -> failwith ("bad plan line: " ^ line))
      in
      loop 1 (-1) lines;
      let rel t = Float.round ((t -. start) *. 1e7) /. 1e4 in
      let span_json s =
        Json.List
          [ Json.Int s.id; Json.Int s.parent; Json.Int s.op; Json.String s.name;
            Json.Float (rel s.t0); Json.Float (rel s.t1) ]
      in
      write_file out_path
        (Json.to_string
           (Json.Obj
              [
                ("effective_jobs", Json.Int (Inl.Pool.jobs ()));
                ("requested_jobs", Json.Int (Inl.Pool.requested_jobs ()));
                ("span_fields", Json.String "id parent op name start_ms end_ms");
                ("spans", Json.List (List.rev_map span_json !spans));
                ("ops", Json.List (List.rev !ops));
              ])
        ^ "\n");
      Inl.Pool.shutdown ()
  | _ ->
      prerr_endline "usage: trace.exe PLAN OUT SECONDS JOBS";
      exit 2
