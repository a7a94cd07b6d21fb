type stats = { hits : int; misses : int; evictions : int; entries : int }

let hit_rate (s : stats) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

(* ---- the process-wide switch and the registry ---- *)

let on = Atomic.make true
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

type registered = { name : string; stats : unit -> stats; clear : unit -> unit }

let registry_lock = Mutex.create ()
let registry : registered list ref = ref [] (* newest first *)

let register r = Mutex.protect registry_lock (fun () -> registry := r :: !registry)
let registered () = Mutex.protect registry_lock (fun () -> List.rev !registry)
let all_stats () = List.map (fun r -> (r.name, r.stats ())) (registered ())
let clear_all () = List.iter (fun r -> r.clear ()) (registered ())

module type S = sig
  type key
  type 'a t

  val create : name:string -> ?max_entries:int -> unit -> 'a t
  val find : 'a t -> key -> 'a option
  val add : 'a t -> key -> 'a -> unit
  val memo : 'a t -> key -> (unit -> 'a) -> 'a
  val clear : 'a t -> unit
  val stats : 'a t -> stats
  val export : 'a t -> string
  val import : 'a t -> string -> (int, string) result
end

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'a t = {
    lock : Mutex.t;
    max_entries : int;
    mutable young : 'a H.t;
    mutable old : 'a H.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let clear t =
    Mutex.protect t.lock (fun () ->
        H.reset t.young;
        H.reset t.old;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  let stats t =
    Mutex.protect t.lock (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          evictions = t.evictions;
          entries = H.length t.young + H.length t.old;
        })

  let create ~name ?(max_entries = 4096) () =
    let t =
      {
        lock = Mutex.create ();
        max_entries = max 1 max_entries;
        young = H.create 64;
        old = H.create 64;
        hits = 0;
        misses = 0;
        evictions = 0;
      }
    in
    register { name; stats = (fun () -> stats t); clear = (fun () -> clear t) };
    t

  (* Inserts (fresh adds and old-to-young promotions alike) fill the young
     generation; when it is full the old generation is retired wholesale.
     A promoted key leaves [old] first, so every resident key is in
     exactly one generation and is counted once by [entries] and
     [evictions]. *)
  let insert t key v =
    H.replace t.young key v;
    if H.length t.young >= t.max_entries then begin
      t.evictions <- t.evictions + H.length t.old;
      t.old <- t.young;
      t.young <- H.create 64
    end

  let find t key =
    if not (enabled ()) then None
    else
      Mutex.protect t.lock (fun () ->
          match H.find_opt t.young key with
          | Some v ->
              t.hits <- t.hits + 1;
              Some v
          | None -> (
              match H.find_opt t.old key with
              | Some v ->
                  t.hits <- t.hits + 1;
                  H.remove t.old key;
                  insert t key v;
                  Some v
              | None ->
                  t.misses <- t.misses + 1;
                  None))

  let add t key v = if enabled () then Mutex.protect t.lock (fun () -> insert t key v)

  let memo t key f =
    match find t key with
    | Some v -> v
    | None ->
        let v = f () in
        add t key v;
        v

  (* The dump is a marshalled (key, value) array, old generation first:
     [import] re-adds in order, so recency survives the round trip
     approximately.  Callers store only plain data (no closures or
     custom blocks), so [Marshal] round-trips it exactly. *)
  let export t =
    let entries =
      Mutex.protect t.lock (fun () ->
          let take tbl = H.fold (fun k v acc -> (k, v) :: acc) tbl [] in
          Array.of_list (take t.old @ take t.young))
    in
    Marshal.to_string entries []

  let import t payload =
    if not (enabled ()) then Ok 0
    else
      match (Marshal.from_string payload 0 : (key * _) array) with
      | exception _ -> Error "unreadable cache dump (truncated or from an incompatible build)"
      | entries ->
          Array.iter (fun (k, v) -> add t k v) entries;
          Ok (Array.length entries)
end

include Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)
