type t =
  | True
  | False
  | Truth of Term.t
  | Eq of Term.t * Term.t
  | Iff of t * t
  | Member of Term.t * Term.t
  | Subset of Term.t * Term.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Unchanged of string list

let rec term_names = function
  | Term.Self | Term.Nil_const | Term.Lit _ | Term.Result | Term.Empty_set ->
    []
  | Term.Ref (name, _) -> [ name ]
  | Term.Insert (a, b) | Term.Delete (a, b) -> term_names a @ term_names b

let rec term_post_names = function
  | Term.Self | Term.Nil_const | Term.Lit _ | Term.Result | Term.Empty_set ->
    []
  | Term.Ref (name, Term.Post) -> [ name ]
  | Term.Ref (_, Term.Pre) -> []
  | Term.Insert (a, b) | Term.Delete (a, b) ->
    term_post_names a @ term_post_names b

let collect by_term by_unchanged f =
  let rec go = function
    | True | False -> []
    | Truth t -> by_term t
    | Eq (a, b) | Member (a, b) | Subset (a, b) -> by_term a @ by_term b
    | Not f -> go f
    | Iff (a, b) | And (a, b) | Or (a, b) | Implies (a, b) -> go a @ go b
    | Unchanged names -> by_unchanged names
  in
  List.sort_uniq String.compare (go f)

let names f = collect term_names (fun ns -> ns) f
let post_names f = collect term_post_names (fun ns -> ns) f

let rec equal a b =
  match (a, b) with
  | True, True | False, False -> true
  | Eq (a1, a2), Eq (b1, b2)
  | Member (a1, a2), Member (b1, b2)
  | Subset (a1, a2), Subset (b1, b2) ->
    Term.equal a1 b1 && Term.equal a2 b2
  | Not x, Not y -> equal x y
  | Truth x, Truth y -> Term.equal x y
  | Iff (a1, a2), Iff (b1, b2) -> equal a1 b1 && equal a2 b2
  | And (a1, a2), And (b1, b2)
  | Or (a1, a2), Or (b1, b2)
  | Implies (a1, a2), Implies (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | Unchanged xs, Unchanged ys -> xs = ys
  | ( ( True | False | Truth _ | Eq _ | Iff _ | Member _ | Subset _ | Not _
      | And _ | Or _ | Implies _ | Unchanged _ ),
      _ ) ->
    false

(* Printing uses minimal parentheses: atoms never need them; any compound
   operand of a binary connective is parenthesised, which matches the
   fully-parenthesised style of the paper closely enough to round-trip. *)
let rec pp ppf = function
  | True -> Format.pp_print_string ppf "TRUE"
  | False -> Format.pp_print_string ppf "FALSE"
  | Truth t -> Term.pp ppf t
  | Eq (a, b) -> Format.fprintf ppf "%a = %a" Term.pp a Term.pp b
  | Iff (a, b) -> Format.fprintf ppf "%a = %a" pp_atom a pp_atom b
  | Member (x, s) -> Format.fprintf ppf "%a IN %a" Term.pp x Term.pp s
  | Subset (a, b) -> Format.fprintf ppf "%a SUBSET %a" Term.pp a Term.pp b
  | Not f -> Format.fprintf ppf "~%a" pp_atom f
  | And (a, b) -> Format.fprintf ppf "%a & %a" pp_atom a pp_atom b
  | Or (a, b) -> Format.fprintf ppf "%a | %a" pp_atom a pp_atom b
  | Implies (a, b) -> Format.fprintf ppf "%a => %a" pp_atom a pp_atom b
  | Unchanged names ->
    Format.fprintf ppf "UNCHANGED [%s]" (String.concat ", " names)

and pp_atom ppf f =
  match f with
  | True | False | Truth _ | Unchanged _ -> pp ppf f
  | Eq _ | Iff _ | Member _ | Subset _ | Not _ | And _ | Or _ | Implies _ ->
    Format.fprintf ppf "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f
