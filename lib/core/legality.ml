module Mat = Inl_linalg.Mat
module Vec = Inl_linalg.Vec
module Interval = Inl_presburger.Interval
module Dep = Inl_depend.Dep
module Layout = Inl_instance.Layout
module Memo = Inl_diag.Memo

type verdict =
  | Legal of { structure : Blockstruct.t; unsatisfied : Dep.t list }
  | Illegal of string

(* Per-dependence outcome; [Dep_violated] carries the Illegal message. *)
type dep_verdict = Dep_satisfied | Dep_unsatisfied | Dep_violated of string

let bound_to_string = function
  | Interval.NegInf -> "-inf"
  | Interval.PosInf -> "+inf"
  | Interval.Fin z -> Inl_num.Mpz.to_string z

(* Canonical rendering of one dependence, computed once per dependence
   (never per candidate). *)
let dep_id (d : Dep.t) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b d.Dep.src;
  Buffer.add_char b '>';
  Buffer.add_string b d.Dep.dst;
  Buffer.add_char b ':';
  Buffer.add_string b d.Dep.array;
  Buffer.add_char b ':';
  Buffer.add_string b (Dep.kind_to_string d.Dep.kind);
  Buffer.add_char b ':';
  Buffer.add_string b (Dep.level_to_string d.Dep.level);
  Buffer.add_char b (if d.Dep.approximate then '~' else '=');
  Array.iter
    (fun (iv : Interval.t) ->
      Buffer.add_string b (bound_to_string iv.Interval.lo);
      Buffer.add_char b ',';
      Buffer.add_string b (bound_to_string iv.Interval.hi);
      Buffer.add_char b ';')
    d.Dep.vector;
  Buffer.contents b

(* The verdict of one dependence reads exactly two things from the
   candidate: the projection of [M.d] onto its common loops, taken at
   their new positions outer-to-inner ([commons]), and for a
   cross-statement dependence whether the source precedes the target in
   the transformed AST. *)
let classify (m : Mat.t) (d : Dep.t) (commons : int list) (src_precedes : bool) : dep_verdict =
  let p = Array.of_list (List.map (fun i -> Interval.dot (Mat.row m i) d.Dep.vector) commons) in
  match Interval.lex_class p with
  | Interval.Satisfied -> Dep_satisfied
  | Interval.Violated ->
      Dep_violated
        (Format.asprintf "dependence %a maps to a possibly lexicographically negative vector"
           Dep.pp d)
  | Interval.Possibly_zero ->
      if String.equal d.src d.dst then Dep_unsatisfied
      else if src_precedes then Dep_satisfied
      else
        Dep_violated
          (Format.asprintf
             "dependence %a can collapse to equal common-loop iterations, but %s does not \
              precede %s in the transformed program"
             Dep.pp d d.src d.dst)

(* ---- the check, with incremental (delta) inheritance ----

   A beam search extends a known-legal parent by one move.  The verdict
   of one dependence is a pure function of (a) the candidate's rows at
   the new positions of the dependence's common loops, taken in new
   outer-to-inner order, and (b) for cross-statement dependences, the
   transformed syntactic order of its endpoints.  So whenever every
   common loop of a dependence sits at the same new position with the
   same row in parent and child, and both endpoints map to the same
   paths, the child's verdict provably equals the parent's and is
   inherited without touching the interval arithmetic.  Anything short
   of that proof classifies the dependence — the delta never weakens the
   check, it only skips re-deriving verdicts whose inputs are
   bit-identical. *)

(* Static (per-search) description of the dependences: everything a
   per-candidate check reads that does not depend on the candidate. *)
type env = {
  e_layout : Layout.t;
  e_deps : Dep.t array;
  e_commons : int list array;  (* old loop positions common to the endpoints *)
  e_src_path : Inl_ir.Ast.path array;
  e_dst_path : Inl_ir.Ast.path array;
  e_same_stmt : bool array;
  e_loop_positions : int list;
}

let make_env (layout : Layout.t) (deps : Dep.t list) : env =
  let arr = Array.of_list deps in
  let info l = Layout.stmt_info layout l in
  {
    e_layout = layout;
    e_deps = arr;
    e_commons =
      Array.map (fun (d : Dep.t) -> Layout.common_loop_positions layout (info d.Dep.src) (info d.Dep.dst)) arr;
    e_src_path = Array.map (fun (d : Dep.t) -> (info d.Dep.src).Layout.path) arr;
    e_dst_path = Array.map (fun (d : Dep.t) -> (info d.Dep.dst).Layout.path) arr;
    e_same_stmt = Array.map (fun (d : Dep.t) -> String.equal d.Dep.src d.Dep.dst) arr;
    e_loop_positions = Layout.loop_positions layout;
  }

(* Everything the delta test compares between a parent and a child: per
   old loop position its new position and the candidate's row there, the
   statement permutations of the block structure (the sole input of
   [Blockstruct.map_path], so equal perms imply every mapped path — and
   every syntactic order — is equal), the per-dependence transformed
   orders, and the verdicts themselves.  Only built for Legal candidates
   (a violated or structurally broken candidate is never extended). *)
type summary = {
  y_new_pos : (int * Vec.t) option array;  (* indexed by old position *)
  y_perms : (Inl_ir.Ast.path * int array) list;  (* structure.perms *)
  y_src_precedes : bool array;  (* per dep, in the transformed program *)
  y_verdicts : dep_verdict array;
}

(* atomics: [check_env] runs concurrently on Pool worker domains, and the
   totals are deterministic (a sum over candidates) regardless of
   schedule *)
let delta_inherited = Atomic.make 0
let delta_checked = Atomic.make 0
let delta_stats () = (Atomic.get delta_inherited, Atomic.get delta_checked)

let reset_delta_stats () =
  Atomic.set delta_inherited 0;
  Atomic.set delta_checked 0

(* [counted] feeds {!delta_stats}: only the search's own candidate
   checks count, not the one-shot checks of {!check}. *)
let run ~counted ?parent (env : env) (m : Mat.t) : verdict * summary option =
  match Blockstruct.infer env.e_layout m with
  | Error msg -> (Illegal ("block structure: " ^ msg), None)
  | Ok structure ->
      let n = Array.length structure.Blockstruct.old_to_new in
      let new_pos = Array.make n None in
      List.iter
        (fun old_pos ->
          let p = structure.Blockstruct.old_to_new.(old_pos) in
          new_pos.(old_pos) <- Some (p, Mat.row m p))
        env.e_loop_positions;
      let nd = Array.length env.e_deps in
      (* Transformed syntactic order per dependence.  [map_path] reads
         only [structure.perms], so when the parent's perms are equal the
         parent's array is reused verbatim (the common case: only reorder
         moves permute statements) — no path is mapped at all. *)
      let src_precedes =
        match parent with
        | Some py when py.y_perms = structure.Blockstruct.perms -> py.y_src_precedes
        | _ ->
            Array.init nd (fun i ->
                env.e_same_stmt.(i)
                ||
                let sp = Blockstruct.map_path structure env.e_src_path.(i) in
                let dp = Blockstruct.map_path structure env.e_dst_path.(i) in
                Inl_ir.Ast.syntactic_compare sp dp < 0)
      in
      (* Old loop positions whose (new position, row) pair differs from
         the parent's — computed once per candidate, so the per-dep
         inherit test is a boolean scan of its commons instead of
         repeated row comparisons. *)
      let changed =
        match parent with
        | None -> [||]
        | Some py ->
            let c = Array.make n false in
            List.iter
              (fun old_pos ->
                c.(old_pos) <-
                  (match (py.y_new_pos.(old_pos), new_pos.(old_pos)) with
                  | Some (pp, prow), Some (cp, crow) ->
                      not (pp = cp && Vec.equal prow crow)
                  | _ -> true))
              env.e_loop_positions;
            c
      in
      let inherited i =
        match parent with
        | None -> None
        | Some py ->
            let rows_unchanged =
              List.for_all (fun old_pos -> not changed.(old_pos)) env.e_commons.(i)
            in
            let order_unchanged =
              env.e_same_stmt.(i) || py.y_src_precedes.(i) = src_precedes.(i)
            in
            if rows_unchanged && order_unchanged then Some py.y_verdicts.(i) else None
      in
      let classify_one i =
        let commons =
          env.e_commons.(i)
          |> List.map (fun old_pos -> structure.Blockstruct.old_to_new.(old_pos))
          |> List.sort compare
        in
        classify m env.e_deps.(i) commons src_precedes.(i)
      in
      (* first offender in dependence order: stop classifying at it *)
      let verdicts = Array.make nd Dep_satisfied in
      let rec scan i =
        if i >= nd then None
        else begin
          let v =
            match inherited i with
            | Some v ->
                if counted then Atomic.incr delta_inherited;
                v
            | None ->
                if counted then Atomic.incr delta_checked;
                classify_one i
          in
          verdicts.(i) <- v;
          match v with Dep_violated msg -> Some msg | _ -> scan (i + 1)
        end
      in
      match scan 0 with
      | Some msg -> (Illegal msg, None)
      | None ->
          let unsatisfied =
            List.filteri (fun i _ -> verdicts.(i) = Dep_unsatisfied) (Array.to_list env.e_deps)
          in
          ( Legal { structure; unsatisfied },
            Some
              {
                y_new_pos = new_pos;
                y_perms = structure.Blockstruct.perms;
                y_src_precedes = src_precedes;
                y_verdicts = verdicts;
              } )

let check_env ?parent env m = run ~counted:true ?parent env m

let check (layout : Layout.t) (m : Mat.t) (deps : Dep.t list) : verdict =
  fst (run ~counted:false (make_env layout deps) m)

let is_legal layout m deps = match check layout m deps with Legal _ -> true | Illegal _ -> false

(* Legality keeps no memo: the verdict is a few interval dot products,
   cheaper to recompute than to key and look up.  These views stay for
   callers that read every memo by name. *)
let memo_stats () = { Memo.hits = 0; misses = 0; evictions = 0; entries = 0 }
let clear_memo () = ()
