type status = Clean | Degraded | Quarantined | Failed

let status_to_string = function
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"
  | Failed -> "failed"

let status_of_string = function
  | "clean" -> Some Clean
  | "degraded" -> Some Degraded
  | "quarantined" -> Some Quarantined
  | "failed" -> Some Failed
  | _ -> None

type t = {
  name : string;
  status : status;
  signature : string;
  detail : string;
  winner : string;
  source_misses : int;
  winner_misses : int;
  accesses : int;
  candidates : int;
  delta_inherited : int;
  delta_checked : int;
  mat_memo_hits : int;
  retried : bool;
  degradations : string;
  wall_ms : int;
  doall : int;
  exec : string;
}

(* Free-text fields (details quote solver messages) must survive the
   tab-separated line format: escape the separator, newlines and the
   escape character itself. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\t' -> Buffer.add_string b "\\t"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char b (match s.[!i] with 't' -> '\t' | 'n' -> '\n' | c -> c)
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let to_line r =
  String.concat "\t"
    [
      escape r.name;
      status_to_string r.status;
      escape r.signature;
      escape r.detail;
      escape r.winner;
      string_of_int r.source_misses;
      string_of_int r.winner_misses;
      string_of_int r.accesses;
      string_of_int r.candidates;
      string_of_int r.delta_inherited;
      string_of_int r.delta_checked;
      string_of_int r.mat_memo_hits;
      (if r.retried then "1" else "0");
      escape r.degradations;
      string_of_int r.wall_ms;
      string_of_int r.doall;
      escape r.exec;
    ]

let of_line line =
  match String.split_on_char '\t' line with
  | [
   name;
   status;
   signature;
   detail;
   winner;
   source_misses;
   winner_misses;
   accesses;
   candidates;
   delta_inherited;
   delta_checked;
   mat_memo_hits;
   retried;
   degradations;
   wall_ms;
   doall;
   exec;
  ] -> (
      let int what s =
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "record field %s: %S is not an integer" what s)
      in
      let ( let* ) = Result.bind in
      match status_of_string status with
      | None -> Error (Printf.sprintf "record: unknown status %S" status)
      | Some status ->
          let* source_misses = int "source_misses" source_misses in
          let* winner_misses = int "winner_misses" winner_misses in
          let* accesses = int "accesses" accesses in
          let* candidates = int "candidates" candidates in
          let* delta_inherited = int "delta_inherited" delta_inherited in
          let* delta_checked = int "delta_checked" delta_checked in
          let* mat_memo_hits = int "mat_memo_hits" mat_memo_hits in
          let* wall_ms = int "wall_ms" wall_ms in
          let* doall = int "doall" doall in
          let* retried =
            match retried with
            | "0" -> Ok false
            | "1" -> Ok true
            | s -> Error (Printf.sprintf "record field retried: %S is not 0/1" s)
          in
          Ok
            {
              name = unescape name;
              status;
              signature = unescape signature;
              detail = unescape detail;
              winner = unescape winner;
              source_misses;
              winner_misses;
              accesses;
              candidates;
              delta_inherited;
              delta_checked;
              mat_memo_hits;
              retried;
              degradations = unescape degradations;
              wall_ms;
              doall;
              exec = unescape exec;
            })
  | _ -> Error "record: wrong field count"

let delta_inherit_rate r =
  let total = r.delta_inherited + r.delta_checked in
  if total = 0 then 0. else float_of_int r.delta_inherited /. float_of_int total
