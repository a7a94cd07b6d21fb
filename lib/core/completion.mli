(** The completion procedure for imperfectly nested loops (Section 6).

    Given a dependence matrix and the first few rows of a desired
    transformation, [complete] fills in the remaining rows to a full
    legal transformation matrix, searching over statement reorderings
    (the child permutations of every multi-child node) and signed unit
    rows drawn from each loop row's structurally allowed columns —
    sufficient for the paper's stated goal of reasoning about loop
    permutations in matrix factorization codes.  The final candidate is
    always validated by the authoritative legality test (Definition 6);
    interval-based pruning cuts the search.

    The partial rows are the {e first} rows of the target matrix in the
    transformed layout's position order; edge rows among them must match
    the statement reordering being tried (supplying a first row only, as
    in the paper's Cholesky example, leaves the reordering free). *)

module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout

type options = {
  allow_reorder : bool;  (** search over statement reorderings (default true) *)
  allow_reversal : bool;  (** include [-e_c] candidate rows (default true) *)
  max_nodes : int;
      (** backtracking budget {e per structure} (default 200000), so each
          structure's search is independent of how many precede it and of
          whether structures are explored sequentially or in parallel *)
}

val default_options : options

val complete :
  ?options:options ->
  ?goal:(Mat.t -> bool) ->
  Layout.t ->
  Dep.t list ->
  partial:Vec.t list ->
  Mat.t option
(** [None] when the search space contains no legal completion meeting
    [goal] (default: any), or the budget ran out.  When the
    {!Inl_parallel.Pool} is configured with more than one job the
    structures are explored concurrently and the first success in
    structure order is returned — the same matrix the sequential search
    finds. *)

val reorder_matrices : Layout.t -> Mat.t list
(** All pure statement-reordering matrices of the program (the identity
    included) — the structure part of the search space. *)

(** {2 Candidate hooks}

    The pieces of the completion search space exposed for external
    drivers (the {!Inl_search} autotuner seeds its beam from them). *)

val reorder_sites : Inl_ir.Ast.program -> (Inl_ir.Ast.path * int) list
(** Multi-child nodes of the program with their child counts — the sites
    a statement reordering can permute, in DFS order. *)

val seed_rows : ?allow_reversal:bool -> Layout.t -> Vec.t list
(** The candidate first rows of the completion search: a signed unit
    vector for every loop column of the layout, in column order
    (positive before negative; negatives omitted when [allow_reversal]
    is false, default true).  Handing one of these to {!complete} as the
    sole partial row asks Section 6 to derive a full legal
    transformation that makes the chosen loop (possibly reversed)
    outermost. *)
