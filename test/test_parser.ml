(* Lexer, parser, printer: unit tests and round-trip properties. *)

open Spec_core

let test_tokenize () =
  let toks = Lexer.tokenize "WHEN m = NIL -- comment\nENSURES {}" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "token count" 8 (List.length kinds);
  (match kinds with
  | [ Lexer.KW "WHEN"; Lexer.IDENT "m"; Lexer.EQUALS; Lexer.KW "NIL";
      Lexer.KW "ENSURES"; Lexer.LBRACE; Lexer.RBRACE; Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "unexpected token stream");
  (* positions advance past comments, columns are 1-based *)
  let pos i = List.nth toks i |> snd in
  Alcotest.(check int) "WHEN on line 1" 1 (pos 0).Lexer.line;
  Alcotest.(check int) "WHEN at col 1" 1 (pos 0).Lexer.col;
  Alcotest.(check int) "m at col 6" 6 (pos 1).Lexer.col;
  Alcotest.(check int) "ENSURES on line 2" 2 (pos 4).Lexer.line;
  Alcotest.(check int) "ENSURES at col 1" 1 (pos 4).Lexer.col;
  Alcotest.(check int) "'{' at col 9" 9 (pos 5).Lexer.col

let test_lex_error () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "m = @"); false
     with Lexer.Lex_error (_, { Lexer.line = 1; col = 5 }) -> true)

(* [final] is printed as OCaml by lib/core/gen/gen_spec.exe at build
   time; parsing [source] at run time must give the same value, so the
   generator printed the parse faithfully.  The printer's own round trip
   is [test_roundtrip_all_variants]. *)
let test_parse_source_equals_builtin () =
  let parsed = Parser.interface_of_string Threads_interface.source in
  Alcotest.(check bool) "parse source = builtin" true
    (Proc.equal_interface parsed Threads_interface.final)

let test_roundtrip_all_variants () =
  List.iter
    (fun (name, iface) ->
      let printed = Printer.to_string iface in
      let reparsed = Parser.interface_of_string printed in
      Alcotest.(check bool) (name ^ " roundtrips") true
        (Proc.equal_interface reparsed iface))
    Threads_interface.variants

let test_well_formed_final () =
  List.iter
    (fun (name, iface) ->
      Alcotest.(check (list string)) (name ^ " well-formed") []
        (Proc.well_formed iface))
    Threads_interface.variants

let test_well_formed_catches () =
  (* ENSURES constrains a variable missing from MODIFIES *)
  let src =
    {|INTERFACE Bad
TYPE Mutex = Thread INITIALLY NIL
ATOMIC PROCEDURE Oops(VAR m : Mutex)
  ENSURES m_post = SELF
|}
  in
  let iface = Parser.interface_of_string src in
  (match Proc.well_formed iface with
  | [] -> Alcotest.fail "expected a violation"
  | errs ->
    Alcotest.(check bool) "mentions MODIFIES" true
      (List.exists
         (fun e ->
           String.length e > 0
           && String.split_on_char ' ' e |> List.mem "MODIFIES")
         errs));
  (* undeclared exception *)
  let src2 =
    {|INTERFACE Bad2
TYPE Semaphore = (available, unavailable) INITIALLY available
ATOMIC PROCEDURE Q(VAR s : Semaphore) RAISES Nope
  MODIFIES AT MOST [s]
  RAISES Nope WHEN s = available
    ENSURES s_post = unavailable
|}
  in
  let iface2 = Parser.interface_of_string src2 in
  Alcotest.(check bool) "undeclared exception flagged" true
    (Proc.well_formed iface2 <> [])

let test_parse_errors () =
  let bad src =
    try
      ignore (Parser.interface_of_string src);
      false
    with Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "missing INTERFACE" true (bad "TYPE Mutex = Thread");
  Alcotest.(check bool) "non-atomic without composition" true
    (bad
       {|INTERFACE X
TYPE Mutex = Thread INITIALLY NIL
PROCEDURE F(VAR m : Mutex)
  ENSURES m_post = NIL
|});
  Alcotest.(check bool) "composition name mismatch" true
    (bad
       {|INTERFACE X
TYPE Mutex = Thread INITIALLY NIL
PROCEDURE F(VAR m : Mutex) = COMPOSITION OF A; B END
  MODIFIES AT MOST [m]
  ATOMIC ACTION A
    ENSURES m_post = NIL
  ATOMIC ACTION Wrong
    ENSURES m_post = NIL
|})

(* Golden error messages: diagnostics are part of the interface.  Each
   malformed input must fail with exactly this message at exactly this
   position (what a user sees as FILE:LINE:COL: message). *)
let test_parse_error_goldens () =
  let golden src expected =
    let got =
      try
        ignore (Parser.interface_of_string src);
        "(no error)"
      with
      | Parser.Parse_error (msg, p) ->
        Printf.sprintf "%d:%d: parse error: %s" p.Lexer.line p.Lexer.col msg
      | Lexer.Lex_error (msg, p) ->
        Printf.sprintf "%d:%d: lexical error: %s" p.Lexer.line p.Lexer.col msg
    in
    Alcotest.(check string) expected expected got
  in
  golden "TYPE Mutex = Thread"
    "1:1: parse error: expected keyword INTERFACE but found keyword TYPE";
  golden
    {|INTERFACE X
TYPE Mutex = Thread INITIALLY NIL
PROCEDURE F(VAR m : Mutex)
  ENSURES m_post = NIL
|}
    "4:3: parse error: procedure F has no COMPOSITION and is not ATOMIC";
  golden
    {|INTERFACE X
TYPE Mutex = Thread INITIALLY NIL
ATOMIC PROCEDURE F(VAR m : Mutex)
  MODIFIES AT MOST [m]
  WHEN m = NIL
|}
    "6:1: parse error: expected keyword ENSURES but found end of input";
  golden
    {|INTERFACE X
TYPE Mutex = Thread INITIALLY NIL
ATOMIC PROCEDURE F(VAR m : Mutex)
  ENSURES m_post = insert(
|}
    "5:1: parse error: expected an expression but found end of input";
  golden
    {|INTERFACE X
TYPE M = Thread INITIALLY NIL
ATOMIC PROCEDURE F(VAR m : M)
  ENSURES m_post @ NIL
|}
    "4:18: lexical error: unexpected character '@'"

(* The position side-table of the located parse: declarations of the
   shipped source are found at the line where their keyword appears. *)
let test_located_positions () =
  let _, locs = Parser.interface_of_string_located Threads_interface.source in
  let lines = String.split_on_char '\n' Threads_interface.source in
  let line_of needle =
    let contains hay =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    match
      List.find_index contains lines
    with
    | Some i -> i + 1
    | None -> Alcotest.fail ("source line not found: " ^ needle)
  in
  let check_proc name =
    match Parser.loc_proc locs name with
    | None -> Alcotest.fail (name ^ ": no position")
    | Some p ->
      Alcotest.(check int)
        (name ^ " line")
        (line_of ("PROCEDURE " ^ name))
        p.Lexer.line
  in
  List.iter check_proc
    [ "Acquire"; "Release"; "Wait"; "Signal"; "Broadcast"; "P"; "V";
      "Alert"; "TestAlert"; "AlertP"; "AlertWait"; "TimedP"; "TimedWait" ];
  (match Parser.loc_action locs ~proc:"Wait" "Resume" with
  | None -> Alcotest.fail "Wait.Resume: no position"
  | Some p ->
    Alcotest.(check int) "Wait.Resume line" (line_of "ATOMIC ACTION Resume")
      p.Lexer.line);
  (* an unlocated (programmatically built) interface has no positions *)
  Alcotest.(check bool) "no_locs empty" true
    (Parser.loc_proc Parser.no_locs "Acquire" = None)

let test_formula_precedence () =
  let f = Parser.formula_of_string in
  (* & binds tighter than | *)
  Alcotest.(check bool) "a | b & c" true
    (Formula.equal
       (f "TRUE | TRUE & FALSE")
       (Formula.Or (Formula.True, Formula.And (Formula.True, Formula.False))));
  (* => is right-associative and loosest *)
  Alcotest.(check bool) "impl assoc" true
    (Formula.equal
       (f "FALSE => FALSE => TRUE")
       (Formula.Implies
          (Formula.False, Formula.Implies (Formula.False, Formula.True))));
  (* left associativity of & *)
  Alcotest.(check bool) "& left assoc" true
    (Formula.equal
       (f "TRUE & TRUE & FALSE")
       (Formula.And (Formula.And (Formula.True, Formula.True), Formula.False)))

let test_term_parsing () =
  let t = Parser.term_of_string in
  Alcotest.(check bool) "insert" true
    (Term.equal
       (t "insert(c, SELF)")
       (Term.Insert (Term.Ref ("c", Term.Pre), Term.Self)));
  Alcotest.(check bool) "post suffix" true
    (Term.equal (t "alerts_post") (Term.Ref ("alerts", Term.Post)));
  Alcotest.(check bool) "RESULT" true (Term.equal (t "RESULT") Term.Result);
  Alcotest.(check bool) "enum literal" true
    (Term.equal (t "available") (Term.Lit (Value.Sem Value.Available)))

(* Random-formula round-trip: generate ASTs from the grammar the printer
   can emit, print, reparse, compare. *)
let gen_term : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Term.Self;
        return Term.Nil_const;
        return Term.Empty_set;
        map (fun n -> Term.Ref ("v" ^ string_of_int n, Term.Pre)) (int_range 0 3);
        map (fun n -> Term.Ref ("v" ^ string_of_int n, Term.Post)) (int_range 0 3);
        return (Term.Lit (Value.Sem Value.Available));
        return (Term.Lit (Value.Sem Value.Unavailable));
      ]
  in
  let rec go depth =
    if depth = 0 then base
    else
      frequency
        [
          (3, base);
          (1, map2 (fun a b -> Term.Insert (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Term.Delete (a, b)) (go (depth - 1)) (go (depth - 1)));
        ]
  in
  go 2

let gen_formula : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        return Formula.True;
        return Formula.False;
        map2 (fun a b -> Formula.Eq (a, b)) gen_term gen_term;
        map2 (fun a b -> Formula.Member (a, b)) gen_term gen_term;
        map2 (fun a b -> Formula.Subset (a, b)) gen_term gen_term;
        map (fun n -> Formula.Unchanged [ "v" ^ string_of_int n ]) (int_range 0 3);
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map (fun f -> Formula.Not f) (go (depth - 1)));
          (1, map2 (fun a b -> Formula.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Formula.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Formula.Implies (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Formula.Iff (a, b)) (go (depth - 1)) (go (depth - 1)));
        ]
  in
  go 3

let prop_formula_roundtrip =
  QCheck.Test.make ~name:"print/parse formula roundtrip" ~count:500
    (QCheck.make gen_formula ~print:Formula.to_string)
    (fun f ->
      let printed = Formula.to_string f in
      let reparsed = Parser.formula_of_string printed in
      Formula.equal reparsed f)

(* Threads_interface.source is specs/threads.lspec, embedded at build
   time; the copy must be byte-for-byte the file a user edits. *)
let test_spec_file_in_sync () =
  let path = "../specs/threads.lspec" in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check string) "specs/threads.lspec is the embedded source"
      contents Threads_interface.source
  end

(* Each historical variant is [final] with AlertP or AlertWait edited:
   every other procedure is the same, and at least one of those two
   differs. *)
let test_variants_edit_alerts_only () =
  let edited p = p.Proc.p_name = "AlertP" || p.Proc.p_name = "AlertWait" in
  let split (i : Proc.interface) =
    let e, rest = List.partition edited i.Proc.i_procs in
    ({ i with Proc.i_procs = e }, { i with Proc.i_procs = rest })
  in
  let final_edited, final_rest = split Threads_interface.final in
  List.iter
    (fun (name, iface) ->
      if name <> "final" then begin
        let e, rest = split iface in
        Alcotest.(check bool) (name ^ ": other procedures unchanged") true
          (Proc.equal_interface rest final_rest);
        Alcotest.(check bool) (name ^ ": AlertP/AlertWait edited") false
          (Proc.equal_interface e final_edited)
      end)
    Threads_interface.variants

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "parser",
    [
      Alcotest.test_case "tokenize" `Quick test_tokenize;
      Alcotest.test_case "lex error" `Quick test_lex_error;
      Alcotest.test_case "source = builtin" `Quick
        test_parse_source_equals_builtin;
      Alcotest.test_case "all variants roundtrip" `Quick
        test_roundtrip_all_variants;
      Alcotest.test_case "variants well-formed" `Quick test_well_formed_final;
      Alcotest.test_case "well-formedness violations" `Quick
        test_well_formed_catches;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "parse error goldens" `Quick test_parse_error_goldens;
      Alcotest.test_case "located positions" `Quick test_located_positions;
      Alcotest.test_case "precedence" `Quick test_formula_precedence;
      Alcotest.test_case "terms" `Quick test_term_parsing;
      q prop_formula_roundtrip;
      Alcotest.test_case "specs/threads.lspec in sync" `Quick
        test_spec_file_in_sync;
      Alcotest.test_case "variants edit only AlertP/AlertWait" `Quick
        test_variants_edit_alerts_only;
    ] )
