(** BENCH_corpus.json: the consolidated corpus report and its drift
    guard.

    {!render} is deterministic: kernels appear in manifest order, string
    fields go through the serve {!Inl_serve.Json} escaper, rates print
    with a fixed format, and every varying input (wall clocks) is part
    of the record itself — so two runs that produced the same records
    render byte-identical reports, which is what the kill-and-resume
    acceptance drill compares.

    {!guard} is the [make corpus-guard] gate: it compares only the
    deterministic per-kernel fields (status, quarantine signature,
    winner recipe, miss/access/candidate counts, degradation tags) of a
    fresh report against the committed baseline, so wall-time noise
    never fails CI but a drifted winner or a newly-quarantined kernel
    does. *)

val render : manifest_fingerprint:string -> jobs:int -> timings:bool -> Record.t list -> string
(** The full JSON document, trailing newline included. *)

val drift :
  list:string -> key:(Inl_serve.Json.t -> string option) -> noun:string -> fields:string list ->
  baseline:string -> current:string -> (unit, string list) result
(** The check behind every committed-report guard: rows of the JSON
    list [list] are matched by [key], and each of [fields] must have the
    same JSON text in both documents.  [Error] names every missing,
    extra or drifted row as [noun] (["kernel"], ["row"]). *)

val guard : baseline:string -> current:string -> (unit, string list) result
(** Both arguments are JSON document texts.  [Error] lists one line per
    drifted kernel/field (typed [K709] by the CLI). *)
