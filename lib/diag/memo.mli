(** The process-wide memo tables: one two-generation mechanism and one
    registry of every table built on it.

    Each table is one mutex around a two-generation hash table — inserts
    fill a young generation; filling it retires the old one, so an entry
    unused for two generations is evicted in O(1) — with
    hit/miss/eviction counters for [inltool --stats].  {!Make} builds
    tables for any hashable key (the Omega projection cache keys on a
    canonical constraint system); the toplevel instance is keyed on
    strings.

    Callers key entries on a value they guarantee determines the stored
    value bit-for-bit, so a hit is indistinguishable from a recompute;
    that is what lets the search share one table across [--jobs] worker
    domains without breaking its byte-identity contract.  Two domains
    racing on a cold key may both compute the value — the duplicate
    insert is benign because the values are equal.

    Every table registers itself under its [~name] when created, so
    [--no-cache] ({!set_enabled}), [--stats] ({!all_stats}) and the
    cold resets of the corpus runner ({!clear_all}) reach every table
    without naming any. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val hit_rate : stats -> float
(** Hits over lookups; [0.0] when no lookups happened. *)

(** {1 Process-wide switch and registry} *)

val set_enabled : bool -> unit
(** The [--no-cache] switch, on by default.  While disabled every table
    answers every lookup with [None], stores nothing (an {!S.import}
    restores nothing and returns [Ok 0]), and counts nothing — results
    are identical either way.  Entries stored before are kept. *)

val enabled : unit -> bool

val all_stats : unit -> (string * stats) list
(** The counters of every table created so far, by name, in creation
    order. *)

val clear_all : unit -> unit
(** {!S.clear} every table created so far. *)

(** {1 Tables} *)

module type S = sig
  type key
  type 'a t

  val create : name:string -> ?max_entries:int -> unit -> 'a t
  (** A new registered table.  [max_entries] (default 4096, clamped to
      >= 1) is the size of each generation; resident entries are bounded
      by twice that. *)

  val find : 'a t -> key -> 'a option
  val add : 'a t -> key -> 'a -> unit

  val memo : 'a t -> key -> (unit -> 'a) -> 'a
  (** [memo t key f] is [find]-or-compute-and-[add].  [f] runs outside
      the table's mutex; exceptions from [f] propagate and store
      nothing. *)

  val clear : 'a t -> unit
  (** Drops all entries and zeroes the counters. *)

  val stats : 'a t -> stats

  val export : 'a t -> string
  (** Serialize every resident entry (both generations) to an opaque
      binary dump.  Keys and values must be plain data (no closures), so
      the marshalled form round-trips exactly.  Counters are not
      included: a restored table starts cold statistically but warm in
      content. *)

  val import : 'a t -> string -> (int, string) result
  (** Re-add the entries of an {!export} dump of a table of the same
      types, returning how many were restored.  A truncated or
      incompatible dump returns [Error] and leaves the table unchanged
      (callers wrap dumps in a checksummed container, so this is the
      second line of defense). *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t

include S with type key = string
