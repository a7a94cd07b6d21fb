(* The completion procedure of Figure 7 (after Li-Pingali [10]): augment a
   rank-deficient per-statement transformation T_S with extra rows so that
   it reaches full column rank and the appended rows carry every
   unsatisfied self-dependence of S.

   Unsatisfied self-dependence distances live in the nullspace of T_S
   (Theorem 3 part 1), and vectors of distinct height within a
   (k-r)-dimensional space occupy at most k-r heights, so appending the
   unit vector e_h at each occupied height both regains rank and carries
   the dependences.  Our dependence entries are intervals, so "height" is
   the first coordinate not definitely zero, and a vector whose height
   entry merely spans [0, oo) is masked at that height and re-examined; a
   final verification pass re-checks every input vector against the
   augmented matrix and rejects completions that could reorder a
   dependence. *)

module Mpz = Inl_num.Mpz
module Vec = Inl_linalg.Vec
module Mat = Inl_linalg.Mat
module Gauss = Inl_linalg.Gauss
module Interval = Inl_presburger.Interval

type ivec = Interval.t array

exception Cannot_complete of string

let iheight (v : ivec) : int option =
  let n = Array.length v in
  let rec go i =
    if i >= n then None else if Interval.definitely_zero v.(i) then go (i + 1) else Some i
  in
  go 0

(* [augment t deps] returns the rows appended to [t] (in order).  [deps]
   are the unsatisfied self-dependence distance vectors of the statement,
   projected onto its own loop coordinates (length k).
   @raise Cannot_complete when no sound completion exists. *)
let augment (t : Mat.t) (deps : ivec list) : Vec.t list =
  let k = Mat.cols t in
  if k = 0 then []
  else begin
    let current = ref (Mat.copy t) in
    let added = ref [] in
    let try_append row =
      let cand = Mat.append_row !current row in
      if Gauss.rank cand > Gauss.rank !current then begin
        current := cand;
        added := row :: !added
      end
    in
    (* Fig 7 main loop over the heights of the unsatisfied vectors. *)
    let used = Array.make k false in
    let pending = ref deps in
    let fuel = ref ((k + 1) * (List.length deps + 1)) in
    while !pending <> [] && !fuel > 0 do
      decr fuel;
      match !pending with
      | [] -> ()
      | v :: rest -> (
          match iheight v with
          | None -> pending := rest (* all-zero box: the same instance; nothing to carry *)
          | Some h ->
              if not used.(h) then begin
                used.(h) <- true;
                try_append (Vec.unit k h)
              end;
              if Interval.definitely_positive v.(h) then pending := rest
              else if Interval.definitely_nonneg v.(h) then begin
                (* the height entry may be zero: mask it and let deeper
                   coordinates carry that case *)
                let v' = Array.copy v in
                v'.(h) <- Interval.point Mpz.zero;
                pending := v' :: rest
              end
              else
                (* a possibly-negative height cannot be carried by unit
                   rows; the final verification decides its fate *)
                pending := rest)
    done;
    (* Fig 7 fallback (line 15): if rank is still short, span the rest of
       the space with nullspace rows, then unit vectors *)
    if Gauss.rank !current < k then List.iter try_append (Gauss.nullspace t);
    for h = 0 to k - 1 do
      if Gauss.rank !current < k then try_append (Vec.unit k h)
    done;
    if Gauss.rank !current < k then raise (Cannot_complete "rank completion failed");
    (* verification: the augmented matrix must never reverse an
       unsatisfied dependence; full rank then guarantees strict ordering
       of distinct dependent instances *)
    List.iter
      (fun d ->
        let image = Array.map (fun row -> Interval.dot row d) !current in
        if Interval.lex_class image = Interval.Violated then
          raise
            (Cannot_complete
               "augmented per-statement transformation fails to carry an unsatisfied \
                self-dependence"))
      deps;
    List.rev !added
  end
