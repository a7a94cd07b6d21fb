(** The pipeline driver shared by [inltool], the serve daemon and the
    corpus runner: analyze, search, check the generated code against
    the source.  The front ends differ in how they read programs and
    report results; the decisions in between are made here, once. *)

module Diag = Inl_diag.Diag

type overrides = {
  beam : int option;
  depth : int option;
  finalists : int option;
  size : int option;
  seed : int option;
}
(** The search options a caller may pin; [None] keeps the base value. *)

val no_overrides : overrides

val field : string -> (int * (overrides -> int -> overrides)) option
(** The least accepted value and the setter of the option named
    ["beam"], ["finalists"], ["size"] (at least 1), ["depth"] or
    ["seed"] (at least 0); [None] for any other name.  The manifest
    parser and the CLI's converters both read the minimums here. *)

val config : base:Search.config -> overrides -> Search.config

type optimized = {
  outcome : Search.outcome;
  diags : Diag.t list;  (** the context's analysis diagnostics, then the search's *)
}

val optimize : base:Search.config -> overrides -> Inl.context -> optimized
(** The CLI and the corpus pass [Search.config_for ctx] as [base];
    serve passes {!Search.default_config}, so its latency does not move
    with the widening. *)

type verdict = Verified | Incomplete | Failed

type checked = {
  report : Inl_verify.Verify.report;
  diags : Diag.t list;
  verdict : verdict;  (** errors: [Failed]; else warnings: [Incomplete]; else [Verified] *)
}

val verify : ?against:Inl.Ast.program -> Inl.Ast.program -> checked

val verdict_name : verdict -> string
(** ["verified"], ["incomplete"], ["failed"]: serve's wire value. *)

val verdict_code : verdict -> int
(** The exit code: 0, 2, 1. *)

val verdict_line : verdict -> string option
(** The line the CLI prints after a translation validation; [None]
    for [Failed], whose diagnostics say it all. *)

val parse : ?what:string -> string -> (Inl.Ast.program, Diag.t list) result
(** Parse without building a layout (generated code has If/Let nodes
    that have none); a parse error is [P101], prefixed ["what: "]. *)
