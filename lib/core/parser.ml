open Lexer

exception Parse_error of string * Lexer.pos

(* Declaration positions, keyed by "proc", "proc.action" and
   "proc.action#case" (1-based case index). *)
type locs = (string, Lexer.pos) Hashtbl.t

let no_locs : locs = Hashtbl.create 1
let loc_proc locs name = Hashtbl.find_opt locs name
let loc_action locs ~proc a = Hashtbl.find_opt locs (proc ^ "." ^ a)

let loc_case locs ~proc ~action i =
  Hashtbl.find_opt locs (Printf.sprintf "%s.%s#%d" proc action i)

type st = {
  mutable toks : (token * Lexer.pos) array;
  mutable pos : int;
  mutable ret : string option;  (* return formal of the current procedure *)
  locs : locs;
}

let current st = fst st.toks.(st.pos)
let position st = snd st.toks.(st.pos)
let record st key pos = Hashtbl.replace st.locs key pos

let peek2 st =
  if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else EOF

let error st fmt =
  Format.kasprintf (fun s -> raise (Parse_error (s, position st))) fmt

let advance st = if st.pos + 1 < Array.length st.toks then st.pos <- st.pos + 1

let expect st tok =
  if current st = tok then advance st
  else
    error st "expected %a but found %a" pp_token tok pp_token (current st)

let kw st name = expect st (KW name)

let accept st tok =
  if current st = tok then begin
    advance st;
    true
  end
  else false

let accept_kw st name = accept st (KW name)

let ident st =
  match current st with
  | IDENT s ->
    advance st;
    s
  | t -> error st "expected an identifier but found %a" pp_token t

(* ---- sorts and literals ---- *)

let sort st =
  match current st with
  | KW "SET" ->
    advance st;
    kw st "OF";
    let elt = ident st in
    if elt <> "Thread" then error st "only SET OF Thread is supported";
    Sort.Thread_set
  | LPAREN ->
    advance st;
    let a = ident st in
    expect st COMMA;
    let b = ident st in
    expect st RPAREN;
    if a <> "available" || b <> "unavailable" then
      error st "only the enumeration (available, unavailable) is supported";
    Sort.Semaphore
  | IDENT "Thread" ->
    advance st;
    Sort.Thread
  | IDENT "bool" ->
    advance st;
    Sort.Bool
  | IDENT "int" ->
    advance st;
    Sort.Int
  | t -> error st "expected a sort but found %a" pp_token t

let literal st =
  match current st with
  | KW "NIL" ->
    advance st;
    Value.Nil
  | KW "TRUE" ->
    advance st;
    Value.Bool true
  | KW "FALSE" ->
    advance st;
    Value.Bool false
  | LBRACE ->
    advance st;
    expect st RBRACE;
    Value.Set Threads_util.Tid.Set.empty
  | IDENT "available" ->
    advance st;
    Value.Sem Value.Available
  | IDENT "unavailable" ->
    advance st;
    Value.Sem Value.Unavailable
  | t -> error st "expected a literal but found %a" pp_token t

(* ---- expressions ---- *)

type expr = T of Term.t | F of Formula.t

let to_term st = function
  | T t -> t
  | F f -> error st "expected a term but found the predicate %s"
             (Formula.to_string f)

let to_formula = function T t -> Formula.Truth t | F f -> f

let name_term st name =
  if name = "RESULT" || st.ret = Some name then Term.Result
  else
    let post_suffix = "_post" in
    let n = String.length name and k = String.length post_suffix in
    if n > k && String.sub name (n - k) k = post_suffix then
      Term.Ref (String.sub name 0 (n - k), Term.Post)
    else Term.Ref (name, Term.Pre)

let names_in_brackets st =
  expect st LBRACKET;
  let rec go acc =
    let n = ident st in
    if accept st COMMA then go (n :: acc) else List.rev (n :: acc)
  in
  let names = go [] in
  expect st RBRACKET;
  names

let rec parse_expr st = parse_implies st

and parse_implies st =
  let lhs = parse_or st in
  if accept st ARROW then
    let rhs = parse_implies st in
    F (Formula.Implies (to_formula lhs, to_formula rhs))
  else lhs

and parse_or st =
  let rec go acc =
    if accept st BAR then
      let rhs = parse_and st in
      go (F (Formula.Or (to_formula acc, to_formula rhs)))
    else acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    if accept st AMP then
      let rhs = parse_rel st in
      go (F (Formula.And (to_formula acc, to_formula rhs)))
    else acc
  in
  go (parse_rel st)

and parse_rel st =
  let lhs = parse_unary st in
  match current st with
  | EQUALS ->
    advance st;
    let rhs = parse_unary st in
    (match (lhs, rhs) with
    | T a, T b -> F (Formula.Eq (a, b))
    | _ -> F (Formula.Iff (to_formula lhs, to_formula rhs)))
  | KW "IN" ->
    advance st;
    let rhs = parse_unary st in
    F (Formula.Member (to_term st lhs, to_term st rhs))
  | KW "SUBSET" ->
    advance st;
    let rhs = parse_unary st in
    F (Formula.Subset (to_term st lhs, to_term st rhs))
  | _ -> lhs

and parse_unary st =
  if accept st TILDE then
    let operand = parse_unary st in
    F (Formula.Not (to_formula operand))
  else parse_primary st

and parse_primary st =
  match current st with
  | KW "TRUE" ->
    advance st;
    F Formula.True
  | KW "FALSE" ->
    advance st;
    F Formula.False
  | KW "SELF" ->
    advance st;
    T Term.Self
  | KW "NIL" ->
    advance st;
    T Term.Nil_const
  | KW "UNCHANGED" ->
    advance st;
    F (Formula.Unchanged (names_in_brackets st))
  | LBRACE ->
    advance st;
    expect st RBRACE;
    T Term.Empty_set
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | IDENT "insert" when peek2 st = LPAREN ->
    advance st;
    let a, b = parse_pair st in
    T (Term.Insert (a, b))
  | IDENT "delete" when peek2 st = LPAREN ->
    advance st;
    let a, b = parse_pair st in
    T (Term.Delete (a, b))
  | IDENT "available" ->
    advance st;
    T (Term.Lit (Value.Sem Value.Available))
  | IDENT "unavailable" ->
    advance st;
    T (Term.Lit (Value.Sem Value.Unavailable))
  | IDENT name ->
    advance st;
    T (name_term st name)
  | t -> error st "expected an expression but found %a" pp_token t

and parse_pair st =
  expect st LPAREN;
  let a = to_term st (parse_expr st) in
  expect st COMMA;
  let b = to_term st (parse_expr st) in
  expect st RPAREN;
  (a, b)

let formula st = to_formula (parse_expr st)

(* ---- clauses and declarations ---- *)

let parse_case_prefix st =
  match current st with
  | KW "RETURNS" ->
    advance st;
    Some Proc.Returns
  | KW "RAISES" ->
    advance st;
    Some (Proc.Raises (ident st))
  | _ -> None

(* case ::= (RETURNS | RAISES exc)? (WHEN formula)? ENSURES formula *)
let parse_case st =
  let outcome = Option.value (parse_case_prefix st) ~default:Proc.Returns in
  let when_ = if accept_kw st "WHEN" then formula st else Formula.True in
  kw st "ENSURES";
  let ensures = formula st in
  { Proc.c_outcome = outcome; c_when = when_; c_ensures = ensures }

let case_starts st =
  match current st with
  | KW ("RETURNS" | "RAISES" | "WHEN" | "ENSURES") -> true
  | _ -> false

(* [key] is the "proc.action" path the cases belong to, for the location
   table. *)
let parse_cases st key =
  let rec go i acc =
    if case_starts st then begin
      let cpos = position st in
      let case = parse_case st in
      record st (Printf.sprintf "%s#%d" key i) cpos;
      go (i + 1) (case :: acc)
    end
    else List.rev acc
  in
  let cases = go 1 [] in
  if cases = [] then error st "expected at least one WHEN/ENSURES case";
  cases

let parse_formals st =
  expect st LPAREN;
  if accept st RPAREN then []
  else begin
    let rec go acc =
      let mode = if accept_kw st "VAR" then Proc.By_var else Proc.By_value in
      let name = ident st in
      expect st COLON;
      let ty = ident st in
      let f = { Proc.f_name = name; f_mode = mode; f_type = ty } in
      if accept st SEMI then go (f :: acc) else List.rev (f :: acc)
    in
    let formals = go [] in
    expect st RPAREN;
    formals
  end

let parse_procedure st ~atomic =
  let ppos = position st in
  kw st "PROCEDURE";
  let name = ident st in
  record st name ppos;
  let formals = parse_formals st in
  let returns =
    if current st = KW "RETURNS" && peek2 st = LPAREN then begin
      advance st;
      expect st LPAREN;
      let rname = ident st in
      expect st COLON;
      let rsort = sort st in
      expect st RPAREN;
      Some (rname, rsort)
    end
    else None
  in
  st.ret <- Option.map fst returns;
  let raises =
    (* Distinguish the header clause [RAISES Alerted MODIFIES ...] from a
       case prefix [RAISES Alerted WHEN ... ENSURES ...]: after the
       exception name, a case continues with WHEN or ENSURES. *)
    let peek3 =
      if st.pos + 2 < Array.length st.toks then fst st.toks.(st.pos + 2)
      else EOF
    in
    let is_header_raises =
      current st = KW "RAISES"
      && (match peek3 with KW ("WHEN" | "ENSURES") -> false | _ -> true)
    in
    if is_header_raises then begin
      advance st;
      let rec go acc =
        let e = ident st in
        if accept st COMMA then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let composition_names =
    if accept st EQUALS then begin
      kw st "COMPOSITION";
      kw st "OF";
      let rec go acc =
        let n = ident st in
        if accept st SEMI then go (n :: acc) else List.rev (n :: acc)
      in
      let names = go [] in
      kw st "END";
      Some names
    end
    else None
  in
  let requires = if accept_kw st "REQUIRES" then formula st else Formula.True in
  let modifies =
    if accept_kw st "MODIFIES" then begin
      kw st "AT";
      kw st "MOST";
      names_in_brackets st
    end
    else []
  in
  let kind =
    match composition_names with
    | None ->
      if not atomic then
        error st "procedure %s has no COMPOSITION and is not ATOMIC" name;
      record st (name ^ "." ^ name) ppos;
      Proc.Atomic
        { Proc.a_name = name; a_cases = parse_cases st (name ^ "." ^ name) }
    | Some names ->
      if atomic then
        error st "ATOMIC PROCEDURE %s cannot be a COMPOSITION" name;
      let parse_action () =
        let apos = position st in
        kw st "ATOMIC";
        kw st "ACTION";
        let a_name = ident st in
        record st (name ^ "." ^ a_name) apos;
        { Proc.a_name; a_cases = parse_cases st (name ^ "." ^ a_name) }
      in
      let rec go acc =
        if current st = KW "ATOMIC" && peek2 st = KW "ACTION" then
          go (parse_action () :: acc)
        else List.rev acc
      in
      let actions = go [] in
      let got = List.map (fun (a : Proc.action) -> a.a_name) actions in
      if got <> names then
        error st "COMPOSITION OF %s but actions are %s"
          (String.concat "; " names) (String.concat "; " got);
      Proc.Composition actions
  in
  st.ret <- None;
  {
    Proc.p_name = name;
    p_formals = formals;
    p_returns = returns;
    p_raises = raises;
    p_requires = requires;
    p_modifies = modifies;
    p_kind = kind;
  }

let parse_interface st =
  kw st "INTERFACE";
  let i_name = ident st in
  let types = ref [] and globals = ref [] and exceptions = ref [] in
  let procs = ref [] in
  let rec loop () =
    match current st with
    | EOF -> ()
    | KW "TYPE" ->
      advance st;
      let t_name = ident st in
      expect st EQUALS;
      let t_sort = sort st in
      kw st "INITIALLY";
      let t_init = literal st in
      types := { Proc.t_name; t_sort; t_init } :: !types;
      loop ()
    | KW "VAR" ->
      advance st;
      let name = ident st in
      expect st COLON;
      let s = sort st in
      kw st "INITIALLY";
      let init = literal st in
      globals := (name, s, init) :: !globals;
      loop ()
    | KW "EXCEPTION" ->
      advance st;
      exceptions := ident st :: !exceptions;
      loop ()
    | KW "ATOMIC" when peek2 st = KW "PROCEDURE" ->
      advance st;
      procs := parse_procedure st ~atomic:true :: !procs;
      loop ()
    | KW "PROCEDURE" ->
      procs := parse_procedure st ~atomic:false :: !procs;
      loop ()
    | t -> error st "expected a declaration but found %a" pp_token t
  in
  loop ();
  {
    Proc.i_name;
    i_types = List.rev !types;
    i_globals = List.rev !globals;
    i_exceptions = List.rev !exceptions;
    i_procs = List.rev !procs;
  }

let make_state src =
  {
    toks = Array.of_list (tokenize src);
    pos = 0;
    ret = None;
    locs = Hashtbl.create 64;
  }

let interface_of_string_located src =
  let st = make_state src in
  let iface = parse_interface st in
  expect st EOF;
  (iface, st.locs)

let interface_of_string src = fst (interface_of_string_located src)

let formula_of_string src =
  let st = make_state src in
  let f = formula st in
  expect st EOF;
  f

let term_of_string src =
  let st = make_state src in
  let t = to_term st (parse_expr st) in
  expect st EOF;
  t
