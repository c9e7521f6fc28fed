type stage = Pre | Post

type t =
  | Self
  | Nil_const
  | Lit of Value.t
  | Ref of string * stage
  | Result
  | Insert of t * t
  | Delete of t * t
  | Empty_set

type binding = Obj of Spec_obj.t | Const of Value.t

exception Eval_error of string

let rec equal a b =
  match (a, b) with
  | Self, Self | Nil_const, Nil_const | Result, Result | Empty_set, Empty_set
    ->
    true
  | Lit x, Lit y -> Value.equal x y
  | Ref (n1, s1), Ref (n2, s2) -> n1 = n2 && s1 = s2
  | Insert (a1, a2), Insert (b1, b2) | Delete (a1, a2), Delete (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | ( ( Self | Nil_const | Lit _ | Ref _ | Result | Insert _ | Delete _
      | Empty_set ),
      _ ) ->
    false

let rec pp ppf = function
  | Self -> Format.pp_print_string ppf "SELF"
  | Nil_const -> Format.pp_print_string ppf "NIL"
  | Result -> Format.pp_print_string ppf "RESULT"
  | Empty_set -> Format.pp_print_string ppf "{}"
  | Lit v -> Value.pp ppf v
  | Ref (name, Pre) -> Format.pp_print_string ppf name
  | Ref (name, Post) -> Format.fprintf ppf "%s_post" name
  | Insert (s, x) -> Format.fprintf ppf "insert(%a, %a)" pp s pp x
  | Delete (s, x) -> Format.fprintf ppf "delete(%a, %a)" pp s pp x
