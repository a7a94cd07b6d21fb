(* The corpus bulk runner's parts in isolation:

   - Manifest: the line dialect, typed K700/K701 rejections, relative
     path resolution, override parsing, fingerprinting;
   - Record: the escaped tab-separated line round-trips every status and
     survives hostile string fields (the checkpoint payload is exactly
     these lines);
   - Bench: the drift guard catches every stable-field drift in both
     directions and ignores wall-clock noise; the layer guard over
     inl-bench-v2 reports catches a drifted stable field and a cold
     time past 2x;
   - Runner: checkpointing end to end on a real (tiny) kernel —
     resume skips completed records, a config mismatch is a typed K703
     refusal, a corrupt checkpoint is a typed K704 cold start. *)

module Diag = Inl_diag.Diag
module Snapshot = Inl_serve.Snapshot
module Manifest = Inl_corpus.Manifest
module Record = Inl_corpus.Record
module Bench = Inl_corpus.Bench
module Runner = Inl_corpus.Runner
module Job = Inl_search.Job

let null_out = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let tmpdir () =
  let dir = Filename.temp_file "inl-corpus-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let write path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let with_manifest text f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "m.manifest" in
      write path text;
      f dir (Manifest.load path))

let expect_codes what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error ds ->
      Alcotest.(check (list string)) what expected (List.map (fun d -> d.Diag.code) ds)

(* ---- manifest ---- *)

let test_manifest_ok () =
  with_manifest
    "# comment line\n\
     kernel a x.loop\n\
     \t kernel b sub/y.loop seed=7 beam=3 depth=2 finalists=1 size=16 timeout_ms=0 \
     budget=1000 faults=every=2 run=4 threads=2\n\
     kernel c /abs/z.loop\n"
    (fun dir m ->
      match m with
      | Error ds -> Alcotest.failf "rejected: %s" (Diag.list_to_string ds)
      | Ok m ->
          Alcotest.(check int) "entries" 3 (List.length m.Manifest.entries);
          let b = List.nth m.Manifest.entries 1 in
          Alcotest.(check string) "relative path resolved" (Filename.concat dir "sub/y.loop")
            b.Manifest.path;
          Alcotest.(check (option int)) "seed" (Some 7) b.Manifest.search.Job.seed;
          Alcotest.(check (option int)) "beam" (Some 3) b.Manifest.search.Job.beam;
          Alcotest.(check (option int)) "timeout may be zero" (Some 0) b.Manifest.timeout_ms;
          Alcotest.(check (option string)) "faults" (Some "every=2") b.Manifest.faults;
          Alcotest.(check (option int)) "run" (Some 4) b.Manifest.run;
          Alcotest.(check (option int)) "threads" (Some 2) b.Manifest.threads;
          let c = List.nth m.Manifest.entries 2 in
          Alcotest.(check string) "absolute path kept" "/abs/z.loop" c.Manifest.path;
          Alcotest.(check bool) "fingerprint nonempty" true (m.Manifest.fingerprint <> ""))

let test_manifest_fingerprint_tracks_text () =
  let fp text = with_manifest text (fun _ m -> (Result.get_ok m).Manifest.fingerprint) in
  Alcotest.(check bool)
    "any edit changes the fingerprint" true
    (fp "kernel a x.loop\n" <> fp "kernel a x.loop seed=1\n")

let test_manifest_rejections () =
  with_manifest "" (fun _ m -> expect_codes "empty" [ "K701" ] m);
  with_manifest "kernel a x.loop extra\n" (fun _ m ->
      expect_codes "bare word" [ "K701" ] m);
  with_manifest "kernel a x.loop colour=blue\n" (fun _ m ->
      expect_codes "unknown key" [ "K701" ] m);
  with_manifest "kernel a x.loop beam=0\n" (fun _ m ->
      expect_codes "beam below minimum" [ "K701" ] m);
  with_manifest "kernel a x.loop seed=many\n" (fun _ m ->
      expect_codes "non-integer" [ "K701" ] m);
  with_manifest "kernel a x.loop faults=bogus\n" (fun _ m ->
      expect_codes "bad fault spec" [ "K701" ] m);
  with_manifest "kernel a/b x.loop\n" (fun _ m ->
      expect_codes "name with separator" [ "K701" ] m);
  with_manifest "kernel a x.loop\nkernel a y.loop\n" (fun _ m ->
      expect_codes "duplicate name" [ "K701" ] m);
  with_manifest "kremel a x.loop\n" (fun _ m ->
      expect_codes "unknown directive" [ "K701" ] m);
  with_manifest "kernel a\n" (fun _ m -> expect_codes "missing path" [ "K701" ] m);
  expect_codes "unreadable file" [ "K700" ] (Manifest.load "/nonexistent/m.manifest")

(* ---- record ---- *)

let sample_record =
  {
    Record.name = "k-1";
    status = Record.Quarantined;
    signature = "timeout";
    detail = "kernel exceeded its 300 ms deadline\twith a tab\nand a newline \\ backslash";
    winner = "";
    source_misses = 4117;
    winner_misses = -1;
    accesses = 0;
    candidates = 215;
    delta_inherited = 10;
    delta_checked = 30;
    mat_memo_hits = 2;
    retried = true;
    degradations = "K706,K711";
    wall_ms = 375;
    doall = -1;
    exec = "";
  }

let test_record_roundtrip () =
  let line = Record.to_line sample_record in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  (match Record.of_line line with
  | Ok r -> Alcotest.(check bool) "round-trip" true (r = sample_record)
  | Error m -> Alcotest.failf "of_line: %s" m);
  List.iter
    (fun status ->
      let r = { sample_record with Record.status } in
      match Record.of_line (Record.to_line r) with
      | Ok r' -> Alcotest.(check bool) "status round-trip" true (r' = r)
      | Error m -> Alcotest.failf "status %s: %s" (Record.status_to_string status) m)
    [ Record.Clean; Record.Degraded; Record.Quarantined; Record.Failed ]

let test_record_rejects_garbage () =
  List.iter
    (fun line ->
      match Record.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ ""; "just one field"; Record.to_line sample_record ^ "\textra" ]

let test_delta_inherit_rate () =
  Alcotest.(check (float 1e-9)) "10/40" 0.25 (Record.delta_inherit_rate sample_record);
  Alcotest.(check (float 1e-9)) "nothing checked -> 0" 0.
    (Record.delta_inherit_rate { sample_record with Record.delta_inherited = 0; delta_checked = 0 })

(* ---- bench guard ---- *)

let clean_record name =
  {
    sample_record with
    Record.name;
    status = Record.Clean;
    signature = "";
    detail = "";
    winner = "complete row=[0,1]";
    winner_misses = 9;
    retried = false;
    degradations = "";
    doall = 1;
    exec = "ok:doall=J";
  }

let render records = Bench.render ~manifest_fingerprint:"f00" ~jobs:1 ~timings:true records

let test_guard_passes_on_match () =
  let b = render [ clean_record "a"; clean_record "b" ] in
  (match Bench.guard ~baseline:b ~current:b with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "drift on identical reports: %s" (String.concat "; " ds));
  (* wall-clock noise is not drift *)
  let noisy = render [ { (clean_record "a") with Record.wall_ms = 9999 }; clean_record "b" ] in
  match Bench.guard ~baseline:b ~current:noisy with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "wall_ms treated as stable: %s" (String.concat "; " ds)

let test_guard_catches_drift () =
  let b = render [ clean_record "a"; clean_record "b" ] in
  let expect_drift what current needle =
    match Bench.guard ~baseline:b ~current with
    | Ok () -> Alcotest.failf "%s: not caught" what
    | Error ds ->
        if not (List.exists (contains ~needle) ds) then
          Alcotest.failf "%s: messages %s lack %S" what (String.concat "; " ds) needle
  in
  expect_drift "miss-count drift"
    (render [ { (clean_record "a") with Record.winner_misses = 10 }; clean_record "b" ])
    "winner_misses drifted";
  expect_drift "status drift"
    (render [ { (clean_record "a") with Record.status = Record.Degraded }; clean_record "b" ])
    "status drifted";
  expect_drift "execution-label drift"
    (render [ { (clean_record "a") with Record.exec = "degraded:X901" }; clean_record "b" ])
    "exec drifted";
  expect_drift "doall-count drift"
    (render [ { (clean_record "a") with Record.doall = 0 }; clean_record "b" ])
    "doall drifted";
  expect_drift "kernel vanished" (render [ clean_record "a" ]) "not the fresh report";
  expect_drift "kernel appeared"
    (render [ clean_record "a"; clean_record "b"; clean_record "c" ])
    "not the baseline";
  match Bench.guard ~baseline:"not json" ~current:(render []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unparsable baseline accepted"

(* The layer guard of bench/bench.ml on a two-row inl-bench-v2 report:
   stable fields exactly, cold_ms within 2x of the committed value. *)
let layers ?(winner = "interchange J,I2") ?(cold_ms = 100.0) () =
  let row config winner cold =
    Inl_serve.Json.(
      to_string
        (Obj
           [
             ("layer", String "search");
             ("workload", String "kji-cholesky");
             ("config", String config);
             ("cold_ms", Float cold);
             ("warm_ms", Float 9.0);
             ("stable", Obj [ ("winner", String winner); ("winner_misses", Int 275) ]);
           ]))
  in
  Printf.sprintf "{\"schema\": \"inl-bench-v2\", \"rows\": [%s, %s]}"
    (row "jobs1" "interchange J,I2" 100.0) (row "jobs2" winner cold_ms)

let test_layer_guard () =
  let baseline = layers () in
  let verdict current = Bench.layer_guard ~baseline ~current in
  let expect_drift what current needle =
    match verdict current with
    | Ok () -> Alcotest.failf "%s: not caught" what
    | Error ds ->
        if not (List.exists (contains ~needle) ds) then
          Alcotest.failf "%s: messages %s lack %S" what (String.concat "; " ds) needle
  in
  expect_drift "search winner drift" (layers ~winner:"identity" ()) "stable drifted";
  expect_drift "cold time 3x" (layers ~cold_ms:300.0 ()) "more than 2x the committed 100";
  match verdict (layers ~cold_ms:150.0 ()) with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "1.5x cold time rejected: %s" (String.concat "; " ds)

(* ---- runner checkpointing on a real kernel ---- *)

let tiny_kernel = "params N\ndo I = 1..N\n  S1: A(I) = A(I) + 1\nenddo\n"

let with_runner_setup ?(keys = "size=8 depth=1 finalists=1") f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () ->
      write (Filename.concat dir "k.loop") tiny_kernel;
      let mpath = Filename.concat dir "m.manifest" in
      write mpath ("kernel k k.loop " ^ keys ^ "\n");
      let manifest = Result.get_ok (Manifest.load mpath) in
      let state = Filename.concat dir "state" in
      let config =
        { Runner.manifest; state_dir = Some state; timeout_ms = 0; timings = false; jobs = 1 }
      in
      f config state)

let run_ok config =
  match Runner.run ~out:null_out config with
  | Ok r -> r
  | Error ds -> Alcotest.failf "runner refused: %s" (Diag.list_to_string ds)

let test_runner_resume_skips_completed () =
  with_runner_setup (fun config state ->
      let first = run_ok config in
      Alcotest.(check int) "one record" 1 (List.length first.Runner.records);
      Alcotest.(check int) "cold start" 0 first.Runner.resumed;
      Alcotest.(check bool) "checkpoint written" true
        (Sys.file_exists (Runner.checkpoint_path state));
      let second = run_ok config in
      Alcotest.(check int) "resumed from checkpoint" 1 second.Runner.resumed;
      Alcotest.(check bool) "records identical" true
        (List.map Record.to_line first.Runner.records
        = List.map Record.to_line second.Runner.records))

let test_runner_refuses_config_mismatch () =
  with_runner_setup (fun config _state ->
      ignore (run_ok config);
      match Runner.run ~out:null_out { config with Runner.timeout_ms = 5_000 } with
      | Error ds ->
          Alcotest.(check (list string)) "typed refusal" [ "K703" ]
            (List.map (fun d -> d.Diag.code) ds)
      | Ok _ -> Alcotest.fail "checkpoint from another config accepted")

let test_runner_cold_starts_on_corrupt_checkpoint () =
  with_runner_setup (fun config state ->
      ignore (run_ok config);
      write (Runner.checkpoint_path state) "not a snapshot";
      let r = run_ok config in
      Alcotest.(check int) "nothing restored" 0 r.Runner.resumed;
      Alcotest.(check (list string)) "typed cold-start warning" [ "K704" ]
        (List.map (fun d -> d.Diag.code) r.Runner.diags);
      Alcotest.(check int) "kernel rerun" 1 (List.length r.Runner.records))

let test_runner_checkpoint_is_a_snapshot () =
  with_runner_setup (fun config state ->
      ignore (run_ok config);
      match
        Snapshot.load
          ~path:(Runner.checkpoint_path state)
          ~kind:Runner.checkpoint_kind ~version:Runner.checkpoint_version
      with
      | Ok (Some payload) ->
          Alcotest.(check bool) "payload has a config header" true
            (String.length payload >= 7 && String.sub payload 0 7 = "config ")
      | Ok None -> Alcotest.fail "checkpoint missing"
      | Error m -> Alcotest.failf "checkpoint unreadable: %s" m)

(* A kernel whose analysis degrades under its budget is recorded with
   the analysis warnings, not only the search's. *)
let test_runner_records_analysis_degradation () =
  with_runner_setup ~keys:"size=8 depth=1 finalists=1 budget=1" (fun config _state ->
      match (run_ok config).Runner.records with
      | [ r ] ->
          Alcotest.(check bool)
            (Printf.sprintf "A201 among %S" r.Record.degradations)
            true
            (List.mem "A201" (String.split_on_char ',' r.Record.degradations));
          Alcotest.(check string) "status" "degraded" (Record.status_to_string r.Record.status)
      | rs -> Alcotest.failf "%d records" (List.length rs))

let () =
  Alcotest.run "corpus"
    [
      ( "manifest",
        [
          Alcotest.test_case "parses entries and overrides" `Quick test_manifest_ok;
          Alcotest.test_case "fingerprint tracks text" `Quick test_manifest_fingerprint_tracks_text;
          Alcotest.test_case "typed rejections" `Quick test_manifest_rejections;
        ] );
      ( "record",
        [
          Alcotest.test_case "line round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_record_rejects_garbage;
          Alcotest.test_case "delta inherit rate" `Quick test_delta_inherit_rate;
        ] );
      ( "guard",
        [
          Alcotest.test_case "match passes, wall_ms ignored" `Quick test_guard_passes_on_match;
          Alcotest.test_case "drift caught both ways" `Quick test_guard_catches_drift;
          Alcotest.test_case "layer guard: stable fields, cold within 2x" `Quick test_layer_guard;
        ] );
      ( "runner",
        [
          Alcotest.test_case "resume skips completed" `Quick test_runner_resume_skips_completed;
          Alcotest.test_case "config mismatch refused" `Quick test_runner_refuses_config_mismatch;
          Alcotest.test_case "corrupt checkpoint cold-starts" `Quick
            test_runner_cold_starts_on_corrupt_checkpoint;
          Alcotest.test_case "checkpoint is a snapshot" `Quick test_runner_checkpoint_is_a_snapshot;
          Alcotest.test_case "analysis degradation recorded" `Quick
            test_runner_records_analysis_degradation;
        ] );
    ]
