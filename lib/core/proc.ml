type outcome = Returns | Raises of string

let pp_outcome ppf = function
  | Returns -> Format.pp_print_string ppf "RETURNS"
  | Raises e -> Format.fprintf ppf "RAISES %s" e

type case = {
  c_outcome : outcome;
  c_when : Formula.t;
  c_ensures : Formula.t;
}

type action = { a_name : string; a_cases : case list }

type formal_mode = By_var | By_value

type formal = { f_name : string; f_mode : formal_mode; f_type : string }

type kind = Atomic of action | Composition of action list

type t = {
  p_name : string;
  p_formals : formal list;
  p_returns : (string * Sort.t) option;
  p_raises : string list;
  p_requires : Formula.t;
  p_modifies : string list;
  p_kind : kind;
}

type type_decl = { t_name : string; t_sort : Sort.t; t_init : Value.t }

type interface = {
  i_name : string;
  i_types : type_decl list;
  i_globals : (string * Sort.t * Value.t) list;
  i_exceptions : string list;
  i_procs : t list;
}

let actions p =
  match p.p_kind with Atomic a -> [ a ] | Composition actions -> actions

let find_proc iface name =
  List.find (fun p -> p.p_name = name) iface.i_procs

let sort_of_type iface name =
  match List.find_opt (fun td -> td.t_name = name) iface.i_types with
  | Some td -> td.t_sort
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) iface.i_globals with
    | Some (_, sort, _) -> sort
    | None ->
      (* Built-in sorts usable directly in formal declarations. *)
      (match name with
      | "bool" -> Sort.Bool
      | "int" -> Sort.Int
      | "Thread" -> Sort.Thread
      | _ -> raise Not_found))

let formal_sort iface p name =
  let f = List.find (fun f -> f.f_name = name) p.p_formals in
  sort_of_type iface f.f_type

let map_proc name f iface =
  (* Procedure names are unique: the list after the edited one is shared. *)
  let rec edit = function
    | [] -> []
    | p :: rest -> if p.p_name = name then f p :: rest else p :: edit rest
  in
  { iface with i_procs = edit iface.i_procs }

let map_action pname aname f =
  map_proc pname (fun p ->
      let g a = if a.a_name = aname then f a else a in
      {
        p with
        p_kind =
          (match p.p_kind with
          | Atomic a -> Atomic (g a)
          | Composition l -> Composition (List.map g l));
      })

let map_case pname aname ci f =
  map_action pname aname (fun a ->
      {
        a with
        a_cases = List.mapi (fun j c -> if j = ci then f c else c) a.a_cases;
      })

(* One-state formulas may not mention _post or UNCHANGED. *)
let rec term_one_state = function
  | Term.Self | Term.Nil_const | Term.Lit _ | Term.Empty_set -> true
  | Term.Result -> false
  | Term.Ref (_, Term.Pre) -> true
  | Term.Ref (_, Term.Post) -> false
  | Term.Insert (x, y) | Term.Delete (x, y) ->
    term_one_state x && term_one_state y

let rec one_state = function
  | Formula.True | Formula.False -> true
  | Formula.Truth t -> term_one_state t
  | Formula.Eq (a, b) | Formula.Member (a, b) | Formula.Subset (a, b) ->
    term_one_state a && term_one_state b
  | Formula.Not f -> one_state f
  | Formula.Iff (a, b)
  | Formula.And (a, b)
  | Formula.Or (a, b)
  | Formula.Implies (a, b) ->
    one_state a && one_state b
  | Formula.Unchanged _ -> false

let well_formed iface =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let check_proc p =
    let ctx = p.p_name in
    List.iter
      (fun f ->
        match sort_of_type iface f.f_type with
        | (_ : Sort.t) -> ()
        | exception Not_found ->
          err "%s: formal %s has undeclared type %s" ctx f.f_name f.f_type)
      p.p_formals;
    List.iter
      (fun e ->
        if not (List.mem e iface.i_exceptions) then
          err "%s: undeclared exception %s" ctx e)
      p.p_raises;
    let is_modifiable name =
      List.exists (fun f -> f.f_name = name && f.f_mode = By_var) p.p_formals
      || List.exists (fun (n, _, _) -> n = name) iface.i_globals
    in
    List.iter
      (fun name ->
        if not (is_modifiable name) then
          err "%s: MODIFIES names %s which is not a VAR formal or global" ctx
            name)
      p.p_modifies;
    if not (one_state p.p_requires) then
      err "%s: REQUIRES must be a one-state predicate" ctx;
    let check_case a c =
      let actx = Printf.sprintf "%s.%s" ctx a.a_name in
      if not (one_state c.c_when) then
        err "%s: WHEN must be a one-state predicate" actx;
      List.iter
        (fun name ->
          if not (List.mem name p.p_modifies) then
            err "%s: ENSURES constrains %s_post but %s is not in MODIFIES"
              actx name name)
        (Formula.post_names c.c_ensures);
      match c.c_outcome with
      | Returns -> ()
      | Raises e ->
        if not (List.mem e p.p_raises) then
          err "%s: case raises %s not declared by the procedure" actx e
    in
    (match p.p_kind with
    | Atomic a ->
      if a.a_cases = [] then err "%s: atomic procedure with no cases" ctx
    | Composition actions ->
      if List.length actions < 2 then
        err "%s: COMPOSITION OF needs at least two actions" ctx;
      List.iter
        (fun a ->
          if a.a_cases = [] then err "%s.%s: action with no cases" ctx a.a_name)
        actions);
    List.iter (fun a -> List.iter (check_case a) a.a_cases) (actions p)
  in
  List.iter check_proc iface.i_procs;
  List.rev !errs

let equal_interface a b =
  (* Structural equality is sufficient: all components are pure data.  The
     polymorphic [=] would also work but we spell it out for formulas to get
     alpha-insensitive comparison if the representation ever grows. *)
  a.i_name = b.i_name && a.i_types = b.i_types && a.i_globals = b.i_globals
  && a.i_exceptions = b.i_exceptions
  && List.length a.i_procs = List.length b.i_procs
  && List.for_all2
       (fun p q ->
         p.p_name = q.p_name && p.p_formals = q.p_formals
         && p.p_returns = q.p_returns && p.p_raises = q.p_raises
         && Formula.equal p.p_requires q.p_requires
         && p.p_modifies = q.p_modifies
         &&
         let eq_case c d =
           c.c_outcome = d.c_outcome
           && Formula.equal c.c_when d.c_when
           && Formula.equal c.c_ensures d.c_ensures
         in
         let eq_action x y =
           x.a_name = y.a_name
           && List.length x.a_cases = List.length y.a_cases
           && List.for_all2 eq_case x.a_cases y.a_cases
         in
         match (p.p_kind, q.p_kind) with
         | Atomic x, Atomic y -> eq_action x y
         | Composition xs, Composition ys ->
           List.length xs = List.length ys && List.for_all2 eq_action xs ys
         | (Atomic _ | Composition _), _ -> false)
       a.i_procs b.i_procs
