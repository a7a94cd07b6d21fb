module Diag = Inl_diag.Diag
module Verify = Inl_verify.Verify

type overrides = {
  beam : int option;
  depth : int option;
  finalists : int option;
  size : int option;
  seed : int option;
}

let no_overrides = { beam = None; depth = None; finalists = None; size = None; seed = None }

let field = function
  | "beam" -> Some (1, fun o n -> { o with beam = Some n })
  | "depth" -> Some (0, fun o n -> { o with depth = Some n })
  | "finalists" -> Some (1, fun o n -> { o with finalists = Some n })
  | "size" -> Some (1, fun o n -> { o with size = Some n })
  | "seed" -> Some (0, fun o n -> { o with seed = Some n })
  | _ -> None

let config ~(base : Search.config) o =
  let pick v d = Option.value v ~default:d in
  {
    base with
    Search.beam = pick o.beam base.beam;
    depth = pick o.depth base.depth;
    finalists = pick o.finalists base.finalists;
    size = pick o.size base.size;
    seed = pick o.seed base.seed;
  }

type optimized = { outcome : Search.outcome; diags : Diag.t list }

let optimize ~base overrides (ctx : Inl.context) =
  let outcome = Search.optimize ~config:(config ~base overrides) ctx in
  { outcome; diags = ctx.Inl.diags @ outcome.Search.diags }

type verdict = Verified | Incomplete | Failed

type checked = { report : Verify.report; diags : Diag.t list; verdict : verdict }

let verify ?against prog =
  let report = Verify.run ?against prog in
  let ds = Verify.diags report in
  let verdict =
    if Diag.has_errors ds then Failed else if Diag.has_warnings ds then Incomplete else Verified
  in
  { report; diags = ds; verdict }

let verdict_name = function
  | Verified -> "verified"
  | Incomplete -> "incomplete"
  | Failed -> "failed"

let verdict_code = function Verified -> 0 | Incomplete -> 2 | Failed -> 1

let verdict_line = function
  | Verified -> Some "statically verified: instance sets and dependence order preserved"
  | Incomplete -> Some "static verification incomplete (see warnings)"
  | Failed -> None

let parse ?what src =
  match Inl.Parser.parse src with
  | Ok prog -> Ok prog
  | Error msg ->
      let msg = match what with Some w -> w ^ ": " ^ msg | None -> msg in
      Error [ Diag.error ~code:"P101" ~phase:Diag.Parse msg ]
