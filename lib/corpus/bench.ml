module Json = Inl_serve.Json

let jstr s = Json.to_string (Json.String s)

let kernel_json (r : Record.t) =
  Printf.sprintf
    "    {\"name\": %s, \"status\": %s, \"signature\": %s, \"winner\": %s, \"source_misses\": \
     %d, \"winner_misses\": %d, \"accesses\": %d, \"candidates\": %d, \"delta_inherit_rate\": \
     %.3f, \"mat_memo_hits\": %d, \"retried\": %b, \"degradations\": %s, \"wall_ms\": %d, \
     \"doall\": %d, \"exec\": %s}"
    (jstr r.Record.name)
    (jstr (Record.status_to_string r.Record.status))
    (jstr r.Record.signature) (jstr r.Record.winner) r.Record.source_misses
    r.Record.winner_misses r.Record.accesses r.Record.candidates (Record.delta_inherit_rate r)
    r.Record.mat_memo_hits r.Record.retried (jstr r.Record.degradations) r.Record.wall_ms
    r.Record.doall (jstr r.Record.exec)

let render ~manifest_fingerprint ~jobs ~timings records =
  let count st = List.length (List.filter (fun r -> r.Record.status = st) records) in
  let wall = List.fold_left (fun acc r -> acc + r.Record.wall_ms) 0 records in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"inl-corpus-bench-v1\",\n\
    \  \"manifest\": %s,\n\
    \  \"jobs\": %d,\n\
    \  \"timings\": %b,\n\
    \  \"kernels\": [\n\
     %s\n\
    \  ],\n\
    \  \"totals\": {\"kernels\": %d, \"clean\": %d, \"degraded\": %d, \"quarantined\": %d, \
     \"failed\": %d, \"wall_ms\": %d}\n\
     }\n"
    (jstr manifest_fingerprint) jobs timings
    (String.concat ",\n" (List.map kernel_json records))
    (List.length records) (count Record.Clean) (count Record.Degraded)
    (count Record.Quarantined) (count Record.Failed) wall

(* ---- the drift guard ---- *)

let stable_fields =
  [ "status"; "signature"; "winner"; "source_misses"; "winner_misses"; "accesses";
    "candidates"; "degradations"; "doall"; "exec" ]

let field_repr k name =
  match Json.member name k with
  | None -> "<absent>"
  | Some v -> Json.to_string v

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

let drift ~list ~key ~noun ~fields ~within ~baseline ~current =
  let rows doc =
    match Json.member list doc with
    | Some (Json.List rs) -> Ok (List.filter_map (fun r -> Option.map (fun k -> (k, r)) (key r)) rs)
    | _ -> Error (Printf.sprintf "no %S list" list)
  in
  match (Json.parse baseline, Json.parse current) with
  | Error m, _ -> Error [ "baseline does not parse: " ^ m ]
  | _, Error m -> Error [ "fresh report does not parse: " ^ m ]
  | Ok base, Ok cur -> (
      match (rows base, rows cur) with
      | Error m, _ -> Error [ "baseline: " ^ m ]
      | _, Error m -> Error [ "fresh report: " ^ m ]
      | Ok bks, Ok cks ->
          let drifts = ref [] in
          let note fmt = Format.kasprintf (fun m -> drifts := m :: !drifts) fmt in
          List.iter
            (fun (k, b) ->
              match List.assoc_opt k cks with
              | None -> note "%s %S: in the baseline but not the fresh report" noun k
              | Some c ->
                  List.iter
                    (fun f ->
                      let b = field_repr b f and c = field_repr c f in
                      if b <> c then note "%s %S: %s drifted: committed %s, got %s" noun k f b c)
                    fields;
                  List.iter
                    (fun (f, factor) ->
                      match (number (Json.member f b), number (Json.member f c)) with
                      | Some bv, Some cv when cv > factor *. bv ->
                          note "%s %S: %s %g is more than %gx the committed %g" noun k f cv factor
                            bv
                      | Some _, Some _ -> ()
                      | _ -> note "%s %S: %s is not a number in both reports" noun k f)
                    within)
            bks;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k bks) then
                note "%s %S: in the fresh report but not the baseline" noun k)
            cks;
          if !drifts = [] then Ok () else Error (List.rev !drifts))

let guard =
  drift ~list:"kernels" ~key:(Json.string_field "name") ~noun:"kernel" ~fields:stable_fields
    ~within:[]

let layer_guard ~baseline ~current =
  let key r =
    match List.map (fun f -> Json.string_field f r) [ "layer"; "workload"; "config" ] with
    | [ Some l; Some w; Some c ] -> Some (String.concat "/" [ l; w; c ])
    | _ -> None
  in
  drift ~list:"rows" ~key ~noun:"row" ~fields:[ "stable" ] ~within:[ ("cold_ms", 2.0) ]
    ~baseline ~current
