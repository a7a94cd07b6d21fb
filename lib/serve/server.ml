(* The inltool serve daemon: a crash-tolerant, long-running optimization
   service speaking a JSON-lines protocol over stdin/stdout or a Unix
   domain socket.

   Robustness is the design center, enforced by construction:

   - every request runs under its own budget, watchdog deadline and
     fault-injection scope, installed before and restored after;
   - a solver blowup or deadline that escapes the library-level
     degradation paths gets ONE retry at sharply reduced budget; if that
     also fails, the request is answered with a typed diagnostic (R706 /
     R708) — the daemon never dies for a request;
   - any other exception is a worker panic: caught, answered as R707,
     the Domain pool revived, the daemon marked internally degraded;
   - the request queue is a bounded FIFO — arrivals beyond capacity are
     rejected immediately with R704, never buffered without bound;
   - the projection cache is checkpointed to a checksummed snapshot
     (write-temp + fsync + rename) every N requests and on drain, and
     restored on startup; a corrupt snapshot is a warning and a cold
     start, not a refusal to boot;
   - SIGTERM stops intake, answers everything already queued,
     checkpoints, and exits 0 (clean drain).

   Exit-code contract (deliberately different from the one-shot
   commands, documented in test/cli.t): 0 clean drain, 1 at least one
   request was answered with an error or produced fuzz findings,
   2 internal fault (recovered panic, failed checkpoint, startup
   failure).  Internal dominates findings: a 2 means the daemon itself
   needs attention, not just some inputs. *)

module Diag = Inl_diag.Diag
module Budget = Inl_diag.Budget
module Faults = Inl_diag.Faults
module Stats = Inl_diag.Stats
module Watchdog = Inl_diag.Watchdog
module Retry = Inl_diag.Retry
module Omega = Inl_presburger.Omega
module Memo = Inl_diag.Memo
module Pool = Inl_parallel.Pool
module Verify = Inl_verify.Verify
module Search = Inl_search.Search
module Job = Inl_search.Job
module Driver = Inl_fuzz.Driver
module Corpus = Inl_fuzz.Corpus
module Tf = Inl_fuzz.Tf

type config = {
  socket : string option;  (** listen on a Unix socket instead of stdin/stdout *)
  state_dir : string option;  (** snapshots + fuzz corpus live here *)
  queue_cap : int;  (** bounded FIFO capacity; arrivals beyond it are rejected *)
  request_timeout_ms : int;  (** default per-request watchdog; 0 = none *)
  max_request_bytes : int;  (** longest accepted request line *)
  checkpoint_every : int;  (** requests between snapshots; 0 = only on drain *)
}

let default_config =
  {
    socket = None;
    state_dir = None;
    queue_cap = 256;
    request_timeout_ms = 0;
    max_request_bytes = 1 lsl 20;
    checkpoint_every = 32;
  }

let snapshot_kind = "omega-cache"
let snapshot_version = 1

type t = {
  config : config;
  mutable served : int;
  mutable ok_count : int;
  mutable err_count : int;
  mutable degraded_count : int;
  mutable rejected : int;  (* overload + oversized, a subset of err_count *)
  mutable findings : bool;  (* any not-ok answer or fuzz findings -> exit 1 *)
  mutable internal : bool;  (* recovered panic / failed checkpoint -> exit 2 *)
  mutable checkpoints : int;
  mutable since_checkpoint : int;
  mutable draining : bool;
  mutable queue_depth : int;  (* maintained by the run loop, read by stats *)
  restored_entries : int;
  methods : (string, int) Hashtbl.t;
}

let log_diag d = prerr_endline (Diag.to_string d)

(* ---- construction: state dir + snapshot restore ---- *)

let snapshot_path dir = Filename.concat dir "cache.snap"

let create config =
  match config.state_dir with
  | None ->
      Ok
        {
          config;
          served = 0;
          ok_count = 0;
          err_count = 0;
          degraded_count = 0;
          rejected = 0;
          findings = false;
          internal = false;
          checkpoints = 0;
          since_checkpoint = 0;
          draining = false;
          queue_depth = 0;
          restored_entries = 0;
          methods = Hashtbl.create 8;
        }
  | Some dir -> (
      match Corpus.ensure_dir dir with
      | Error msg -> Error ("state directory: " ^ msg)
      | Ok () ->
          let restored =
            match
              Snapshot.load ~path:(snapshot_path dir) ~kind:snapshot_kind
                ~version:snapshot_version
            with
            | Ok None -> 0
            | Ok (Some payload) -> (
                match Omega.cache_restore payload with
                | Ok n -> n
                | Error msg ->
                    log_diag
                      (Diag.warningf ~code:"R709" ~phase:Diag.Serve
                         "snapshot unusable, starting cold: %s" msg);
                    0)
            | Error msg ->
                log_diag
                  (Diag.warningf ~code:"R709" ~phase:Diag.Serve
                     "snapshot unusable, starting cold: %s" msg);
                0
          in
          if restored > 0 then
            Printf.eprintf "serve: restored %d projection-cache entries from %s\n%!" restored
              (snapshot_path dir);
          Ok
            {
              config;
              served = 0;
              ok_count = 0;
              err_count = 0;
              degraded_count = 0;
              rejected = 0;
              findings = false;
              internal = false;
              checkpoints = 0;
              since_checkpoint = 0;
              draining = false;
              queue_depth = 0;
              restored_entries = restored;
              methods = Hashtbl.create 8;
            })

(* A --no-cache session restored nothing, so it must not overwrite the
   snapshot with its empty cache either. *)
let checkpoint t =
  match t.config.state_dir with
  | None -> ()
  | Some _ when not (Memo.enabled ()) -> ()
  | Some dir -> (
      t.since_checkpoint <- 0;
      match
        Snapshot.save ~path:(snapshot_path dir) ~kind:snapshot_kind ~version:snapshot_version
          (Omega.cache_snapshot ())
      with
      | Ok () -> t.checkpoints <- t.checkpoints + 1
      | Error msg ->
          t.internal <- true;
          log_diag
            (Diag.warningf ~code:"R710" ~phase:Diag.Serve "checkpoint failed: %s" msg))

let after_request t =
  t.since_checkpoint <- t.since_checkpoint + 1;
  if t.config.checkpoint_every > 0 && t.since_checkpoint >= t.config.checkpoint_every then
    checkpoint t

(* ---- response assembly ---- *)

let diag_to_json d =
  Json.Obj
    (List.map
       (fun (k, v) ->
         if k = "line" then (k, Json.Int (int_of_string v)) else (k, Json.String v))
       (Diag.to_fields d))

let response t ~id ~meth ?(result = Json.Null) ?stats (diags : Diag.t list) =
  let ok = not (Diag.has_errors diags) in
  let degraded = Diag.has_warnings diags in
  t.served <- t.served + 1;
  if ok then begin
    t.ok_count <- t.ok_count + 1;
    if degraded then t.degraded_count <- t.degraded_count + 1
  end
  else begin
    t.err_count <- t.err_count + 1;
    t.findings <- true
  end;
  let payload =
    if ok then [ ("result", result) ]
    else
      let first_error = List.find (fun d -> d.Diag.severity = Diag.Error) diags in
      [ ("error", diag_to_json first_error) ]
  in
  Json.Obj
    ([ ("id", id); ("method", Json.String meth); ("ok", Json.Bool ok);
       ("degraded", Json.Bool degraded) ]
    @ payload
    @ [ ("diags", Json.List (List.map diag_to_json diags)) ]
    @ match stats with None -> [] | Some s -> [ ("stats", s) ])

let reject t ~id ~meth ~code msg =
  response t ~id ~meth [ Diag.error ~code ~phase:Diag.Serve msg ]

(* ---- method handlers (pure compute; never touch the wire) ---- *)

(* A handler returns its result object plus diagnostics; errors among
   the diagnostics make the response not-ok with the first error as the
   wire error object. *)
type hresult = Json.t * Diag.t list

let require_program req : (string, Diag.t list) result =
  match Json.string_field "program" req with
  | Some src -> Ok src
  | None ->
      Error
        [
          Diag.error ~code:"R703" ~phase:Diag.Serve
            "invalid request: missing or non-string \"program\"";
        ]

let handle_analyze req : hresult =
  match require_program req with
  | Error ds -> (Json.Null, ds)
  | Ok src -> (
      match Inl.analyze_source_result src with
      | Error ds -> (Json.Null, ds)
      | Ok ctx ->
          let deps = ctx.Inl.deps in
          let approx =
            List.length (List.filter (fun (d : Inl.Dep.t) -> d.Inl.Dep.approximate) deps)
          in
          let dep_lines =
            List.map (fun d -> Json.String (Format.asprintf "%a" Inl.Dep.pp d)) deps
          in
          ( Json.Obj
              [
                ("statements", Json.Int (List.length ctx.Inl.layout.Inl.Layout.stmts));
                ("dependences", Json.Int (List.length deps));
                ("approximate", Json.Int approx);
                ("matrix", Json.List dep_lines);
              ],
            ctx.Inl.diags ))

let handle_verify req : hresult =
  match require_program req with
  | Error ds -> (Json.Null, ds)
  | Ok src -> (
      let against =
        match Json.string_field "against" req with
        | None -> Ok None
        | Some s -> Result.map Option.some (Job.parse ~what:"against" s)
      in
      match (Job.parse ~what:"program" src, against) with
      | Error ds, _ | _, Error ds -> (Json.Null, ds)
      | Ok prog, Ok against ->
          let c = Job.verify ?against prog in
          ( Json.Obj
              [
                ("verdict", Json.String (Job.verdict_name c.Job.verdict));
                ( "loops",
                  Json.List
                    (List.map
                       (fun l -> Json.String l)
                       (Verify.loop_summary c.Job.report.Verify.loops)) );
              ],
            c.Job.diags ))

(* The CLI's and the manifest's minimums ([Job.field]): below them a
   search answers nonsense (size 0 simulates no access and reports a
   0-miss winner).  [beam] stays unchecked: a nonsense beam is the
   daemon's worker-panic drill. *)
let optimize_ranges req : (unit, Diag.t list) result =
  match
    List.find_map
      (fun name ->
        match (Json.int_field name req, Job.field name) with
        | Some n, Some (least, _) when n < least -> Some (name, least, n)
        | _ -> None)
      [ "size"; "finalists"; "depth"; "seed" ]
  with
  | None -> Ok ()
  | Some (name, least, n) ->
      Error
        [
          Diag.errorf ~code:"R703" ~phase:Diag.Serve
            "invalid request: %S must be at least %d (got %d)" name least n;
        ]

let handle_optimize req : hresult =
  match Result.bind (optimize_ranges req) (fun () -> require_program req) with
  | Error ds -> (Json.Null, ds)
  | Ok src -> (
      match Inl.analyze_source_result src with
      | Error ds -> (Json.Null, ds)
      | Ok ctx -> (
          let int name = Json.int_field name req in
          (* the default, unwidened base: widening doubles the candidates
             on the bigger kernels, which would move request latency *)
          let { Job.outcome = o; diags } =
            Job.optimize ~base:Search.default_config
              {
                Job.beam = int "beam";
                depth = int "depth";
                finalists = int "finalists";
                size = int "size";
                seed = int "seed";
              }
              ctx
          in
          let opt f = function Some v -> f v | None -> Json.Null in
          match o.Search.winner with
          | None -> (Json.Null, diags)
          | Some w ->
              ( Json.Obj
                  [
                    ("winner", Json.String (Search.recipe_line w.Search.recipe));
                    ("recipe", Json.String (Tf.to_string w.Search.recipe));
                    ("misses", opt (fun n -> Json.Int n) w.Search.misses);
                    ("accesses", opt (fun n -> Json.Int n) w.Search.accesses);
                    ( "program",
                      opt (fun p -> Json.String (Inl.Pp.program_to_string p)) w.Search.program
                    );
                  ],
                diags )))

let handle_fuzz t req : hresult =
  let field name v = Option.value (Json.int_field name req) ~default:v in
  let cfg =
    {
      Driver.seed = field "seed" 0;
      cases = field "cases" 20;
      timeout_ms = field "case_timeout_ms" 2000;
      corpus =
        (match t.config.state_dir with
        | Some dir -> Some (Filename.concat dir "fuzz-corpus")
        | None -> None);
      shrink = Json.bool_field "shrink" req <> Some false;
    }
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  match Driver.run ~out:fmt cfg with
  | Error msg -> (Json.Null, [ Diag.error ~code:"R712" ~phase:Diag.Serve msg ])
  | Ok report ->
      Format.pp_print_flush fmt ();
      let findings = Driver.findings report in
      if findings > 0 then t.findings <- true;
      ( Json.Obj
          [
            ("completed", Json.Int report.Driver.completed);
            ("ok", Json.Int report.Driver.ok);
            ("skipped", Json.Int report.Driver.skipped);
            ("findings", Json.Int findings);
            ("summary", Json.String (Driver.summary_line report));
          ],
        [] )

let stats_json t =
  let cs = Omega.cache_stats () in
  let methods =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) t.methods []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ("served", Json.Int t.served);
      ("ok", Json.Int t.ok_count);
      ("errors", Json.Int t.err_count);
      ("degraded", Json.Int t.degraded_count);
      ("rejected", Json.Int t.rejected);
      ( "queue",
        Json.Obj
          [ ("capacity", Json.Int t.config.queue_cap); ("depth", Json.Int t.queue_depth) ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int cs.Memo.hits);
            ("misses", Json.Int cs.Memo.misses);
            ("entries", Json.Int cs.Memo.entries);
            ("warm", Json.Bool (cs.Memo.hits > 0));
          ] );
      ( "snapshot",
        Json.Obj
          [
            ("restored_entries", Json.Int t.restored_entries);
            ("checkpoints", Json.Int t.checkpoints);
          ] );
      ( "memos",
        Json.Obj
          (List.map
             (fun (name, (s : Memo.stats)) ->
               ( name,
                 Json.Obj
                   [
                     ("hits", Json.Int s.hits);
                     ("misses", Json.Int s.misses);
                     ("entries", Json.Int s.entries);
                   ] ))
             (Memo.all_stats ())) );
      ("pool", Json.Obj [ ("jobs", Json.Int (Pool.jobs ())) ]);
      ("methods", Json.Obj methods);
    ]

(* ---- the degradation ladder (shared: Inl_diag.Retry) ---- *)

(* The first-rung failure, rendered the way the retry diagnostics quote
   it on the wire. *)
let first_reason_message = function
  | Retry.Deadline { timeout_ms; _ } ->
      Printf.sprintf "request exceeded its %d ms deadline" timeout_ms
  | Retry.Degraded m -> "a solver blowup escaped the degradation paths: " ^ m

let guarded t ~id ~meth req (handler : unit -> hresult) =
  let base_budget = Omega.get_default_budget () in
  let base_faults = Faults.current () in
  let base_fm =
    match Json.int_field "budget" req with
    | Some n when n > 0 -> n
    | _ -> base_budget.Budget.fm_work
  in
  let ms =
    match Json.int_field "timeout_ms" req with
    | Some n -> n
    | None -> t.config.request_timeout_ms
  in
  match
    match Json.string_field "faults" req with
    | None -> Ok base_faults
    | Some spec -> Faults.parse spec
  with
  | Error msg -> reject t ~id ~meth ~code:"R703" ("bad \"faults\" spec: " ^ msg)
  | Ok faults -> (
      let want_stats = Json.bool_field "stats" req = Some true in
      let _, proj0 = Omega.solver_calls () in
      let cs0 = Omega.cache_stats () in
      let snap0 = Stats.snapshot () in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            Omega.set_default_budget base_budget;
            Faults.install base_faults)
          (fun () ->
            (* the fault spec is (re)installed per attempt so injected
               failures fire on the same schedule whether or not this is
               the retry *)
            let f ~fm_work ~timeout_ms:_ =
              Faults.install faults;
              Omega.set_default_budget (Budget.with_fm_work base_budget fm_work);
              handler ()
            in
            let degradable = function Omega.Blowup m -> Some m | _ -> None in
            match Retry.run ~fm_work:base_fm ~timeout_ms:ms ~degradable f with
            | Retry.Completed (result, ds) -> `Done (result, ds)
            | Retry.Recovered { value = result, ds; first; fm_work = fm' } ->
                `Done
                  ( result,
                    ds
                    @ [
                        Diag.warningf ~code:"R711" ~phase:Diag.Serve
                          "%s; answered by a retry at reduced budget (fm_work=%d)"
                          (first_reason_message first) fm';
                      ] )
            | Retry.Exhausted { first; second = Retry.Deadline _; fm_work = fm' } ->
                `Done
                  ( Json.Null,
                    [
                      Diag.errorf ~code:"R706" ~phase:Diag.Serve
                        "%s, and the reduced-budget retry (fm_work=%d) also exceeded its \
                         deadline; request abandoned"
                        (first_reason_message first) fm';
                    ] )
            | Retry.Exhausted { first; second = Retry.Degraded m; fm_work = fm' } ->
                `Done
                  ( Json.Null,
                    [
                      Diag.errorf ~code:"R708" ~phase:Diag.Serve
                        "%s, and the reduced-budget retry (fm_work=%d) blew up: %s"
                        (first_reason_message first) fm' m;
                    ] )
            | exception e -> `Panic (e, Printexc.get_backtrace ()))
      in
      match outcome with
      | `Done (result, diags) ->
          let stats =
            if not want_stats then None
            else
              let _, proj1 = Omega.solver_calls () in
              let cs1 = Omega.cache_stats () in
              let _, counter_deltas = Stats.since snap0 in
              Some
                (Json.Obj
                   [
                     ("project_calls", Json.Int (proj1 - proj0));
                     ("cache_hits", Json.Int (cs1.Memo.hits - cs0.Memo.hits));
                     ("cache_misses", Json.Int (cs1.Memo.misses - cs0.Memo.misses));
                     ( "counters",
                       Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) counter_deltas) );
                   ])
          in
          response t ~id ~meth ~result ?stats diags
      | `Panic (e, bt) ->
          t.internal <- true;
          Pool.revive ();
          let d =
            Diag.errorf ~code:"R707" ~phase:Diag.Serve "worker panic (recovered): %s"
              (Printexc.to_string e)
          in
          log_diag d;
          if bt <> "" then prerr_string bt;
          response t ~id ~meth [ d ])

(* ---- request dispatch ---- *)

(* One request line in, one response line out.  Never raises, never
   writes the wire itself — the run loop (and the unit tests) own IO. *)
let handle t line : string =
  let resp =
    if String.length line > t.config.max_request_bytes then begin
      t.rejected <- t.rejected + 1;
      reject t ~id:Json.Null ~meth:"" ~code:"R705"
        (Printf.sprintf "oversized request (%d bytes, limit %d)" (String.length line)
           t.config.max_request_bytes)
    end
    else
      match Json.parse line with
      | Error msg -> reject t ~id:Json.Null ~meth:"" ~code:"R701" ("malformed JSON: " ^ msg)
      | Ok req -> (
          let id = Option.value (Json.member "id" req) ~default:Json.Null in
          match Json.string_field "method" req with
          | None ->
              reject t ~id ~meth:"" ~code:"R703"
                "invalid request: missing or non-string \"method\""
          | Some meth -> (
              (match Hashtbl.find_opt t.methods meth with
              | Some n -> Hashtbl.replace t.methods meth (n + 1)
              | None -> Hashtbl.add t.methods meth 1);
              match meth with
              | "ping" -> response t ~id ~meth ~result:(Json.Obj [ ("pong", Json.Bool true) ]) []
              | "stats" -> response t ~id ~meth ~result:(stats_json t) []
              | "shutdown" ->
                  t.draining <- true;
                  response t ~id ~meth ~result:(Json.Obj [ ("draining", Json.Bool true) ]) []
              | "analyze" -> guarded t ~id ~meth req (fun () -> handle_analyze req)
              | "verify" -> guarded t ~id ~meth req (fun () -> handle_verify req)
              | "optimize" -> guarded t ~id ~meth req (fun () -> handle_optimize req)
              | "fuzz" -> guarded t ~id ~meth req (fun () -> handle_fuzz t req)
              | other -> reject t ~id ~meth:other ~code:"R702" ("unknown method " ^ other)))
  in
  Json.to_string resp

(* The overload answer is assembled outside [handle]: the queue is the
   run loop's, and the rejected line is parsed only far enough to echo
   an id back. *)
let overload_response t line : string =
  t.rejected <- t.rejected + 1;
  let id =
    match Json.parse line with
    | Ok req -> Option.value (Json.member "id" req) ~default:Json.Null
    | Error _ -> Json.Null
  in
  Json.to_string
    (reject t ~id ~meth:"" ~code:"R704"
       (Printf.sprintf "overloaded: queue full (%d pending), request rejected"
          t.config.queue_cap))

let exit_code t = if t.internal then 2 else if t.findings then 1 else 0

(* ---- the wire: sources, line framing, the select loop ---- *)

type wire = {
  fd : Unix.file_descr;
  out : Unix.file_descr option;  (* None for the listening socket *)
  wbuf : Buffer.t;
  mutable discard : bool;  (* inside an oversized line: drop until '\n' *)
  mutable open_ : bool;
  listener : bool;
  close_fd : bool;  (* sockets yes; stdin stays the process's *)
}

let mk_wire ?(listener = false) ?(close_fd = true) ?out fd =
  { fd; out; wbuf = Buffer.create 1024; discard = false; open_ = true; listener; close_fd }

let write_all w (s : string) =
  match w.out with
  | None -> ()
  | Some fd -> (
      let n = String.length s in
      let written = ref 0 in
      try
        while !written < n do
          written := !written + Unix.write_substring fd s !written (n - !written)
        done
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> w.open_ <- false)

let respond w line = write_all w (line ^ "\n")

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Split the wire buffer into complete lines, keeping the remainder
   buffered; enforce the size cap on the remainder so an endless line
   cannot grow the buffer without bound. *)
let extract_lines t w =
  let data = Buffer.contents w.wbuf in
  Buffer.clear w.wbuf;
  let rec go start acc =
    match String.index_from_opt data start '\n' with
    | Some i ->
        let line = strip_cr (String.sub data start (i - start)) in
        go (i + 1) (line :: acc)
    | None ->
        Buffer.add_substring w.wbuf data start (String.length data - start);
        List.rev acc
  in
  let lines = go 0 [] in
  if Buffer.length w.wbuf > t.config.max_request_bytes then begin
    Buffer.clear w.wbuf;
    w.discard <- true;
    t.rejected <- t.rejected + 1;
    respond w
      (Json.to_string
         (reject t ~id:Json.Null ~meth:"" ~code:"R705"
            (Printf.sprintf "oversized request (line exceeds %d bytes)"
               t.config.max_request_bytes)))
  end;
  lines

type loop_state = { t : t; queue : (wire * string) Queue.t; mutable wires : wire list }

let enqueue ls w line =
  if String.trim line = "" then ()
  else if Queue.length ls.queue >= ls.t.config.queue_cap then
    respond w (overload_response ls.t line)
  else Queue.push (w, line) ls.queue

let read_wire ls w =
  if w.listener then begin
    match Unix.accept w.fd with
    | client, _ ->
        Unix.set_close_on_exec client;
        ls.wires <- ls.wires @ [ mk_wire ~out:client client ]
    | exception Unix.Unix_error _ -> ()
  end
  else
    let chunk = Bytes.create 65536 in
    match Unix.read w.fd chunk 0 65536 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> w.open_ <- false
    | 0 -> w.open_ <- false
    | n ->
        let data = Bytes.sub_string chunk 0 n in
        let data =
          if not w.discard then data
          else
            match String.index_opt data '\n' with
            | None -> ""
            | Some i ->
                w.discard <- false;
                String.sub data (i + 1) (String.length data - i - 1)
        in
        if data <> "" then begin
          Buffer.add_string w.wbuf data;
          List.iter (enqueue ls w) (extract_lines ls.t w)
        end

let process_queue ls =
  while not (Queue.is_empty ls.queue) do
    let w, line = Queue.pop ls.queue in
    ls.t.queue_depth <- Queue.length ls.queue;
    let resp = handle ls.t line in
    if w.open_ then respond w resp;
    after_request ls.t
  done;
  ls.t.queue_depth <- 0

let cleanup ls =
  List.iter
    (fun w ->
      if w.open_ && w.close_fd then try Unix.close w.fd with Unix.Unix_error _ -> ())
    ls.wires;
  match ls.t.config.socket with
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ()

let run config =
  match create config with
  | Error msg ->
      log_diag (Diag.error ~code:"R700" ~phase:Diag.Serve ("cannot start: " ^ msg));
      2
  | Ok t -> (
      let term = ref false in
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true)) in
      let restore_signals () =
        Sys.set_signal Sys.sigpipe old_pipe;
        Sys.set_signal Sys.sigterm old_term
      in
      let wires_result =
        match config.socket with
        | None -> Ok [ mk_wire ~close_fd:false ~out:Unix.stdout Unix.stdin ]
        | Some path -> (
            (try Sys.remove path with Sys_error _ -> ());
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            match
              Unix.bind fd (Unix.ADDR_UNIX path);
              Unix.listen fd 16
            with
            | () -> Ok [ mk_wire ~listener:true fd ]
            | exception Unix.Unix_error (e, _, _) ->
                Unix.close fd;
                Error (path ^ ": " ^ Unix.error_message e))
      in
      match wires_result with
      | Error msg ->
          restore_signals ();
          log_diag (Diag.error ~code:"R700" ~phase:Diag.Serve ("cannot start: " ^ msg));
          2
      | Ok wires ->
          let ls = { t; queue = Queue.create (); wires } in
          let stdin_mode = config.socket = None in
          let rec loop () =
            if !term then begin
              t.draining <- true;
              Printf.eprintf "serve: SIGTERM, draining\n%!"
            end;
            if t.draining then ()
            else begin
              ls.wires <- List.filter (fun w -> w.open_) ls.wires;
              let fds = List.map (fun w -> w.fd) ls.wires in
              if fds = [] then
                (* all inputs gone: a clean end of session in stdin
                   mode; in socket mode keep waiting for clients on the
                   listener (which never closes) *)
                if stdin_mode then t.draining <- true else ()
              else begin
                (match Unix.select fds [] [] 0.25 with
                | readable, _, _ ->
                    List.iter
                      (fun w -> if List.mem w.fd readable then read_wire ls w)
                      ls.wires
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
                process_queue ls
              end;
              if not t.draining then loop ()
            end
          in
          loop ();
          (* graceful drain: everything queued is answered, then one
             final checkpoint makes the warm cache durable *)
          process_queue ls;
          checkpoint t;
          cleanup ls;
          restore_signals ();
          Printf.eprintf
            "serve: drained after %d request%s (%d ok, %d errors, %d degraded)\n%!" t.served
            (if t.served = 1 then "" else "s")
            t.ok_count t.err_count t.degraded_count;
          exit_code t)

(* ---- client mode: forward stdin lines to a serving socket ---- *)

let client ~socket =
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Some fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        connect (tries - 1)
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        None
  in
  match connect 100 with
  | None ->
      log_diag
        (Diag.errorf ~code:"R700" ~phase:Diag.Serve "cannot connect to %s" socket);
      2
  | Some fd ->
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      (* Count the non-empty request lines we forward; the server sends
         exactly one response line per request, so the session is over
         when the counts meet (or the server closes first). *)
      let sent = ref 0 and received = ref 0 in
      let stdin_eof = ref false and server_eof = ref false in
      let inbuf = Buffer.create 1024 in
      let pending = Buffer.create 1024 in
      let flush_requests () =
        let data = Buffer.contents pending in
        Buffer.clear pending;
        let rec go start =
          match String.index_from_opt data start '\n' with
          | Some i ->
              let line = strip_cr (String.sub data start (i - start)) in
              if String.trim line <> "" then begin
                incr sent;
                let payload = line ^ "\n" in
                let n = String.length payload in
                let written = ref 0 in
                while !written < n do
                  written := !written + Unix.write_substring fd payload !written (n - !written)
                done
              end;
              go (i + 1)
          | None -> Buffer.add_substring pending data start (String.length data - start)
        in
        go 0
      in
      let rec loop () =
        if (!stdin_eof && !received >= !sent) || !server_eof then ()
        else begin
          let watch = (if !stdin_eof then [] else [ Unix.stdin ]) @ [ fd ] in
          (match Unix.select watch [] [] 1.0 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, _, _ ->
              let chunk = Bytes.create 65536 in
              if List.mem Unix.stdin readable then begin
                match Unix.read Unix.stdin chunk 0 65536 with
                | 0 -> stdin_eof := true
                | n ->
                    Buffer.add_subbytes pending chunk 0 n;
                    flush_requests ()
              end;
              if List.mem fd readable then begin
                match Unix.read fd chunk 0 65536 with
                | 0 -> server_eof := true
                | n ->
                    print_string (Bytes.sub_string chunk 0 n);
                    flush stdout;
                    Buffer.add_subbytes inbuf chunk 0 n;
                    let s = Buffer.contents inbuf in
                    Buffer.clear inbuf;
                    String.iter (fun c -> if c = '\n' then incr received) s
              end);
          loop ()
        end
      in
      loop ();
      Unix.close fd;
      if !received >= !sent then 0 else 1
