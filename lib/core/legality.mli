(** The legality test of Definition 6.

    A transformation matrix [M] is legal when (i) it has the recursive
    block structure ({!Blockstruct}), and (ii) for every dependence [d]
    from [S1] to [S2], the projection [P] of [M.d] onto the loops common
    to [S1] and [S2] (taken in the transformed program's outer-to-inner
    order) satisfies [P > 0], or [P = 0] with [S1] syntactically before
    [S2] in the new AST.  A self-dependence with [P = 0] is merely
    {e unsatisfied}: it must later be carried by the extra loops added
    during augmentation (Section 5.4), so the verdict reports the
    unsatisfied dependences rather than rejecting them.

    Dependence vectors are interval (box) abstractions, so the check is
    conservative: [Legal] certifies every concrete dependent pair. *)

module Mat = Inl_linalg.Mat
module Interval = Inl_presburger.Interval
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout

type verdict =
  | Legal of { structure : Blockstruct.t; unsatisfied : Dep.t list }
  | Illegal of string

val dep_id : Dep.t -> string
(** Canonical exact rendering of one dependence (endpoints, array, kind,
    level, approximation flag, and the interval vector with exact
    bounds — unlike {!Dep.pp}, which abbreviates intervals to direction
    symbols).  Used as the dependence component of process-wide memo
    keys. *)

val check : Layout.t -> Mat.t -> Dep.t list -> verdict
(** The verdict of Definition 6, classifying dependences in order and
    stopping at the first offender, whose message it reports.  The same
    as {!check_env} on [make_env layout deps] with no parent. *)

val is_legal : Layout.t -> Mat.t -> Dep.t list -> bool

(** {1 Incremental (delta) checking}

    A beam search extends a known-legal parent state by one move.  The
    verdict of one dependence is a pure function of (a) the candidate's
    rows at the new positions of the dependence's common loops, taken in
    the transformed outer-to-inner order, and (b) for cross-statement
    dependences, the transformed syntactic order of its endpoints.  So
    when every common loop of a dependence sits at the same new position
    with the same row in both parent and child, and its endpoints keep
    the same transformed syntactic order, the child's verdict provably
    equals the parent's and is inherited without re-deriving it.
    Anything short of that proof falls back to the interval arithmetic,
    so the delta never weakens the check — it only skips recomputing
    verdicts whose inputs are bit-identical.  No verdict is memoized:
    one classification is a few interval dot products, cheaper than a
    table lookup keyed on its inputs. *)

type env
(** Per-(program, dependence-set) precomputation shared by every
    candidate of a search: common old-loop positions and untransformed
    statement paths per dependence. *)

val make_env : Layout.t -> Dep.t list -> env

type summary
(** What the delta test compares between parent and child: per old loop
    position its new position and matrix row, the per-dependence
    transformed endpoint order (with the statement permutation it was
    derived from, so equal permutations share the array), and the
    per-dependence verdicts.  Produced only for [Legal] candidates
    (only those are ever extended). *)

val check_env : ?parent:summary -> env -> Mat.t -> verdict * summary option
(** Like {!check} (first offender in dependence order), but given the
    [parent] summary, inherits every verdict whose inputs are unchanged
    by the move.  Its classifications count in {!delta_stats}; those of
    {!check} do not. *)

val delta_stats : unit -> int * int
(** [(inherited, checked)] verdict counts over all {!check_env} calls
    since the last {!reset_delta_stats}. *)

val reset_delta_stats : unit -> unit

(** {1 Memo views}

    Legality keeps no memo.  These views stay for callers that read
    every memo by name. *)

val memo_stats : unit -> Inl_diag.Memo.stats
(** Always all zero. *)

val clear_memo : unit -> unit
(** A no-op. *)
