(* A diagnostic produced by the static verifier.  [cls] is the stable
   kebab-case diagnostic class every consumer keys on: the mutant corpus
   asserts each seeded defect is flagged with a distinct class, the JSON
   reports expose it, and the DPOR cross-check compares dynamic violation
   classes against statically reachable ones. *)

type severity = Error | Warning

type t = {
  cls : string;  (* diagnostic class, kebab-case *)
  severity : severity;
  where : string;  (* scenario or procedure the finding is about *)
  pos : Spec_core.Lexer.pos option;
      (* source position, for a lint finding on parsed spec text *)
  msg : string;
}

let make ?(severity = Error) ?pos ~cls ~where msg =
  { cls; severity; where; pos; msg }

let severity_name = function Error -> "error" | Warning -> "warning"

(* ["LINE:COL: "] when the finding has a position, else [""]. *)
let pos_prefix f =
  match f.pos with
  | Some p -> Format.asprintf "%a: " Spec_core.Lexer.pp_pos p
  | None -> ""

(* The message with its position in front. *)
let text f = pos_prefix f ^ f.msg

let pp ppf f =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name f.severity) f.cls f.where
    (text f)

let errors fs = List.filter (fun f -> f.severity = Error) fs

(* Keep the first occurrence of each (class, where, msg) triple; the
   engine can rediscover the same defect on many interleavings. *)
let dedup fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key = (f.cls, f.where, f.msg) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    fs
