(* The reference program of perfbench: a fixed amount of single-threaded,
   allocation-heavy work shaped like inltool's own (a persistent map, a
   hash table, sorting an array and lists).  run.py times it at quiet
   points of every run, on the cores the operations use, and divides each
   end-to-end time by its time around the operation.  On a shared host,
   work like this slows down and speeds up with the neighbours' use of the
   caches and memory while a pure arithmetic loop does not; inltool moves
   with it.  It links nothing of the program under test, so its work is
   the same on every commit. *)

module M = Map.Make (Int)

let () =
  let m = ref M.empty in
  for i = 0 to 15_000 do
    m := M.add (i * 7919 mod 200_003) [ i; i ] !m
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) [ i ]
  done;
  let a = Array.init 50_000 (fun i -> i * 48_271 mod 65_521) in
  Array.sort compare a;
  let l = ref [] in
  for r = 1 to 10 do
    l := List.sort compare (List.init 10_000 (fun i -> i * r mod 977))
  done;
  Printf.printf "%d\n" (M.cardinal !m + Hashtbl.length h + a.(7) + List.length !l)
