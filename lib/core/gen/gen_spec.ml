(* gen_spec FILE: parses the interface specification in FILE and prints
   an OCaml module with [source], the file's text, and [final], its
   parse as a [Proc.interface] literal.  A malformed FILE is reported as
   FILE:LINE:COL, as check-spec reports it, with exit code 1. *)

let pf = Format.fprintf

let list pp ppf = function
  | [] -> pf ppf "[]"
  | xs ->
    pf ppf "@[<hv 2>[ %a ]@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> pf ppf ";@ ") pp)
      xs

let str ppf s = pf ppf "%S" s

(* [Name (a, b)], for the two-argument constructors. *)
let app2 ppf name pa a pb b = pf ppf "@[<hv 2>(%s@ (%a,@ %a))@]" name pa a pb b

let sort ppf (s : Sort.t) =
  pf ppf "Sort.%s"
    (match s with
    | Thread -> "Thread"
    | Bool -> "Bool"
    | Int -> "Int"
    | Thread_set -> "Thread_set"
    | Semaphore -> "Semaphore")

let value ppf (v : Value.t) =
  match v with
  | Nil -> pf ppf "Value.Nil"
  | Thread t -> pf ppf "(Value.Thread %d)" t
  | Bool b -> pf ppf "(Value.Bool %b)" b
  | Int i -> pf ppf "(Value.Int (%d))" i
  | Set s ->
    pf ppf "(Value.Set (Threads_util.Tid.Set.of_int_list %a))"
      (list Format.pp_print_int)
      (Threads_util.Tid.Set.elements s)
  | Sem Available -> pf ppf "(Value.Sem Value.Available)"
  | Sem Unavailable -> pf ppf "(Value.Sem Value.Unavailable)"

let rec term ppf (t : Term.t) =
  match t with
  | Self -> pf ppf "Term.Self"
  | Nil_const -> pf ppf "Term.Nil_const"
  | Result -> pf ppf "Term.Result"
  | Empty_set -> pf ppf "Term.Empty_set"
  | Lit v -> pf ppf "(Term.Lit %a)" value v
  | Ref (n, Pre) -> pf ppf "(Term.Ref (%S, Term.Pre))" n
  | Ref (n, Post) -> pf ppf "(Term.Ref (%S, Term.Post))" n
  | Insert (s, x) -> app2 ppf "Term.Insert" term s term x
  | Delete (s, x) -> app2 ppf "Term.Delete" term s term x

let rec formula ppf (f : Formula.t) =
  match f with
  | True -> pf ppf "Formula.True"
  | False -> pf ppf "Formula.False"
  | Truth t -> pf ppf "@[<hv 2>(Formula.Truth@ %a)@]" term t
  | Not f -> pf ppf "@[<hv 2>(Formula.Not@ %a)@]" formula f
  | Unchanged names -> pf ppf "(Formula.Unchanged %a)" (list str) names
  | Eq (a, b) -> app2 ppf "Formula.Eq" term a term b
  | Member (a, b) -> app2 ppf "Formula.Member" term a term b
  | Subset (a, b) -> app2 ppf "Formula.Subset" term a term b
  | Iff (a, b) -> app2 ppf "Formula.Iff" formula a formula b
  | And (a, b) -> app2 ppf "Formula.And" formula a formula b
  | Or (a, b) -> app2 ppf "Formula.Or" formula a formula b
  | Implies (a, b) -> app2 ppf "Formula.Implies" formula a formula b

let case ppf (c : Proc.case) =
  pf ppf "@[<hv 2>{ Proc.c_outcome = %s;@ c_when = %a;@ c_ensures = %a }@]"
    (match c.c_outcome with
    | Returns -> "Proc.Returns"
    | Raises e -> Printf.sprintf "Proc.Raises %S" e)
    formula c.c_when formula c.c_ensures

let action ppf (a : Proc.action) =
  pf ppf "@[<hv 2>{ Proc.a_name = %S;@ a_cases = %a }@]" a.a_name (list case)
    a.a_cases

let formal ppf (f : Proc.formal) =
  pf ppf "{ Proc.f_name = %S; f_mode = Proc.%s; f_type = %S }" f.f_name
    (match f.f_mode with By_var -> "By_var" | By_value -> "By_value")
    f.f_type

let proc ppf (p : Proc.t) =
  pf ppf
    "@[<hv 2>{ Proc.p_name = %S;@ p_formals = %a;@ p_returns = %s;@ \
     p_raises = %a;@ p_requires = %a;@ p_modifies = %a;@ p_kind = %a }@]"
    p.p_name (list formal) p.p_formals
    (match p.p_returns with
    | None -> "None"
    | Some (n, s) -> Format.asprintf "Some (%S, %a)" n sort s)
    (list str) p.p_raises formula p.p_requires (list str) p.p_modifies
    (fun ppf -> function
      | Proc.Atomic a -> pf ppf "@[<hv 2>Proc.Atomic@ %a@]" action a
      | Composition acts ->
        pf ppf "@[<hv 2>Proc.Composition@ %a@]" (list action) acts)
    p.p_kind

let interface ppf (i : Proc.interface) =
  pf ppf
    "@[<hv 2>{ Proc.i_name = %S;@ i_types = %a;@ i_globals = %a;@ \
     i_exceptions = %a;@ i_procs = %a }@]"
    i.i_name
    (list (fun ppf (t : Proc.type_decl) ->
         pf ppf "@[<hv 2>{ Proc.t_name = %S;@ t_sort = %a;@ t_init = %a }@]"
           t.t_name sort t.t_sort value t.t_init))
    i.i_types
    (list (fun ppf (n, s, v) -> pf ppf "(%S, %a, %a)" n sort s value v))
    i.i_globals (list str) i.i_exceptions (list proc) i.i_procs

let () =
  let file = Sys.argv.(1) in
  let src = In_channel.with_open_bin file In_channel.input_all in
  let fail kind msg (p : Lexer.pos) =
    Printf.eprintf "%s:%d:%d: %s: %s\n" file p.line p.col kind msg;
    exit 1
  in
  let iface =
    try Parser.interface_of_string src with
    | Parser.Parse_error (msg, p) -> fail "parse error" msg p
    | Lexer.Lex_error (msg, p) -> fail "lexical error" msg p
  in
  Format.printf "(* Generated from %s; do not edit. *)@.@.let source = %S@.@."
    (Filename.basename file) src;
  Format.printf "@[<hv 2>let final : Proc.interface =@ %a@]@." interface iface
