open Proc

(* Term and formula shorthands for the variant edits. *)
let pre name = Term.Ref (name, Term.Pre)
let post name = Term.Ref (name, Term.Post)
let self = Term.Self
let ( === ) a b = Formula.Eq (a, b)
let ( &&& ) a b = Formula.And (a, b)
let mem x s = Formula.Member (x, s)
let not_ f = Formula.Not f
let unchanged names = Formula.Unchanged names
let delete s x = Term.Delete (s, x)

(* specs/threads.lspec, parsed at build time (lib/core/dune). *)
let final = Threads_lspec.final

(* The three historical variants, each an edit of [final]'s AlertP or
   AlertResume. *)

let missing_mutex_guard =
  map_case "AlertWait" "AlertResume" 1
    (fun c -> { c with c_when = mem self (pre "alerts") })
    final

let must_raise =
  let unalerted c =
    { c with c_when = c.c_when &&& not_ (mem self (pre "alerts")) }
  in
  final
  |> map_case "AlertP" "AlertP" 0 unalerted
  |> map_case "AlertWait" "AlertResume" 0 unalerted

let nelson_bug =
  map_case "AlertWait" "AlertResume" 1
    (fun c ->
      {
        c with
        c_ensures =
          (post "m" === self)
          &&& (post "alerts" === delete (pre "alerts") self)
          &&& unchanged [ "c" ];
      })
    final

let variants =
  [
    ("final", final);
    ("missing-mutex-guard", missing_mutex_guard);
    ("must-raise", must_raise);
    ("nelson-bug", nelson_bug);
  ]

let source = Threads_lspec.source
