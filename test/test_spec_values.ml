(* Tests for the specification value/term/formula/state tier. *)

open Spec_core
module Tid = Threads_util.Tid

let v = Alcotest.testable Value.pp Value.equal

let test_sorts () =
  Alcotest.(check bool) "nil : Thread" true (Value.has_sort Value.Nil Sort.Thread);
  Alcotest.(check bool) "t1 : Thread" true
    (Value.has_sort (Value.Thread 1) Sort.Thread);
  Alcotest.(check bool) "bool not Thread" false
    (Value.has_sort (Value.Bool true) Sort.Thread)

let test_initials () =
  Alcotest.check v "mutex init" Value.Nil (Value.initial Sort.Thread);
  Alcotest.check v "cond init" (Value.Set Tid.Set.empty)
    (Value.initial Sort.Thread_set);
  Alcotest.check v "sem init" (Value.Sem Value.Available)
    (Value.initial Sort.Semaphore)

let set_of xs = Value.Set (Tid.Set.of_int_list xs)

let test_set_ops () =
  Alcotest.check v "insert" (set_of [ 1; 2 ])
    (Value.insert (set_of [ 1 ]) (Value.Thread 2));
  Alcotest.check v "insert idempotent" (set_of [ 1 ])
    (Value.insert (set_of [ 1 ]) (Value.Thread 1));
  Alcotest.check v "delete" (set_of [ 1 ])
    (Value.delete (set_of [ 1; 2 ]) (Value.Thread 2));
  Alcotest.check v "delete absent" (set_of [ 1 ])
    (Value.delete (set_of [ 1 ]) (Value.Thread 9));
  Alcotest.(check bool) "member" true (Value.member (Value.Thread 1) (set_of [ 1 ]));
  Alcotest.(check bool) "subset strict" true
    (Value.subset (set_of [ 1 ]) (set_of [ 1; 2 ]));
  Alcotest.(check bool) "subset refl" true
    (Value.subset (set_of [ 1 ]) (set_of [ 1 ]));
  Alcotest.(check bool) "not subset" false
    (Value.subset (set_of [ 3 ]) (set_of [ 1; 2 ]))

let test_sort_errors () =
  Alcotest.(check bool) "insert into thread fails" true
    (try ignore (Value.insert Value.Nil (Value.Thread 1)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "member of nil set arg" true
    (try ignore (Value.member (Value.Bool true) (set_of [])); false
     with Invalid_argument _ -> true)

let prop_set_ops_model =
  (* insert/delete/member agree with a sorted-list model *)
  QCheck.Test.make ~name:"Value set ops vs model" ~count:300
    QCheck.(pair (list (int_range 0 10)) (int_range 0 10))
    (fun (xs, x) ->
      let s = set_of xs in
      let model = List.sort_uniq compare xs in
      Value.member (Value.Thread x) s = List.mem x model
      && Value.equal
           (Value.insert s (Value.Thread x))
           (set_of (x :: model))
      && Value.equal
           (Value.delete s (Value.Thread x))
           (set_of (List.filter (fun y -> y <> x) model)))

let fresh name sort = Spec_obj.create name sort

let test_state_basics () =
  let m = fresh "m" Sort.Thread in
  let st = State.add m Value.Nil State.empty in
  Alcotest.check v "get" Value.Nil (State.get st m);
  let st2 = State.set st m (Value.Thread 3) in
  Alcotest.check v "set" (Value.Thread 3) (State.get st2 m);
  Alcotest.check v "persistence" Value.Nil (State.get st m);
  Alcotest.(check bool) "alerts empty" true
    (Tid.Set.is_empty (State.alerts st))

let test_state_sort_check () =
  let m = fresh "m" Sort.Thread in
  Alcotest.(check bool) "bad add" true
    (try ignore (State.add m (Value.Bool true) State.empty); false
     with Invalid_argument _ -> true);
  let st = State.add m Value.Nil State.empty in
  Alcotest.(check bool) "bad set" true
    (try ignore (State.set st m (set_of [])); false
     with Invalid_argument _ -> true);
  let c = fresh "c" Sort.Thread_set in
  Alcotest.(check bool) "set unbound" true
    (try ignore (State.set st c (set_of [])); false
     with Invalid_argument _ -> true)

let test_state_equality () =
  let m = fresh "m" Sort.Thread in
  let a = State.add m (Value.Thread 1) State.empty in
  let b = State.add m (Value.Thread 1) State.empty in
  let c = State.add m (Value.Thread 2) State.empty in
  Alcotest.(check bool) "equal" true (State.equal a b);
  Alcotest.(check bool) "not equal" false (State.equal a c)

(* ---- terms and formulas ---- *)

(* A term or formula compiled for formals named as in [bindings] (in
   order), two-state when there is a post state, and evaluated. *)
let evaluate compile ?(self = 1) ?post ?result bindings pre x =
  let formals = List.map fst bindings in
  compile ~formals ~two_state:(post <> None) x
    (Semantics.args (List.map snd bindings) pre)
    (Value.Thread self) pre (Option.value post ~default:pre) result

let term = evaluate Semantics.term
let formula = evaluate Semantics.formula

let test_term_eval () =
  let m = fresh "m" Sort.Thread in
  let pre = State.add m Value.Nil State.empty in
  let post = State.set pre m (Value.Thread 1) in
  let eval = term [ ("m", Term.Obj m) ] pre ~post in
  Alcotest.check v "SELF" (Value.Thread 1) (eval Term.Self);
  Alcotest.check v "NIL" Value.Nil (eval Term.Nil_const);
  Alcotest.check v "pre ref" Value.Nil (eval (Term.Ref ("m", Term.Pre)));
  Alcotest.check v "post ref" (Value.Thread 1)
    (eval (Term.Ref ("m", Term.Post)));
  Alcotest.check v "empty set" (set_of []) (eval Term.Empty_set)

let test_term_alerts_global () =
  let pre = State.set_alerts State.empty (Tid.Set.singleton 4) in
  let eval = term [] pre in
  Alcotest.check v "alerts resolves" (set_of [ 4 ])
    (eval (Term.Ref ("alerts", Term.Pre)))

let test_term_errors () =
  let pre = State.empty in
  let eval = term [] pre in
  Alcotest.(check bool) "unbound" true
    (try ignore (eval (Term.Ref ("zz", Term.Pre))); false
     with Term.Eval_error _ -> true);
  Alcotest.(check bool) "post in one-state" true
    (try ignore (eval (Term.Ref ("alerts", Term.Post))); false
     with Term.Eval_error _ -> true);
  Alcotest.(check bool) "result missing" true
    (try ignore (eval Term.Result); false
     with Term.Eval_error _ -> true)

let test_formula_eval () =
  let m = fresh "m" Sort.Thread in
  let c = fresh "c" Sort.Thread_set in
  let pre =
    State.empty |> State.add m Value.Nil |> State.add c (set_of [ 2 ])
  in
  let post = State.set pre m (Value.Thread 1) in
  let eval =
    formula [ ("m", Term.Obj m); ("c", Term.Obj c) ] pre ~post
  in
  let f = Parser.formula_of_string in
  Alcotest.(check bool) "when true" true (eval (f "m = NIL"));
  Alcotest.(check bool) "post eq" true (eval (f "m_post = SELF"));
  Alcotest.(check bool) "member" true
    (eval (f "~(SELF IN c)"));
  Alcotest.(check bool) "unchanged c" true
    (eval (f "UNCHANGED [c]"));
  Alcotest.(check bool) "unchanged m false" false
    (eval (f "UNCHANGED [m]"));
  Alcotest.(check bool) "subset" true
    (eval (f "c_post SUBSET c"));
  Alcotest.(check bool) "implication" true
    (eval (f "FALSE => m = SELF"))

let test_formula_iff_truth () =
  let pre = State.set_alerts State.empty (Tid.Set.singleton 1) in
  let post = State.set_alerts pre Tid.Set.empty in
  let eval = formula [] pre ~post ~result:(Value.Bool true) in
  let f =
    Parser.formula_of_string
      "(RESULT = (SELF IN alerts)) & (alerts_post = delete(alerts, SELF))"
  in
  Alcotest.(check bool) "TestAlert ensures" true (eval f);
  let eval_false = formula [] pre ~post ~result:(Value.Bool false) in
  Alcotest.(check bool) "wrong result" false (eval_false f)

let test_formula_names () =
  let f =
    Parser.formula_of_string "(m_post = SELF) & (c_post = delete(c, SELF))"
  in
  Alcotest.(check (list string)) "names" [ "c"; "m" ] (Formula.names f);
  Alcotest.(check (list string)) "post names" [ "c"; "m" ]
    (Formula.post_names f);
  let g = Parser.formula_of_string "m = NIL" in
  Alcotest.(check (list string)) "one-state post names" [] (Formula.post_names g)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "spec-values",
    [
      Alcotest.test_case "sorts" `Quick test_sorts;
      Alcotest.test_case "INITIALLY values" `Quick test_initials;
      Alcotest.test_case "set operations" `Quick test_set_ops;
      Alcotest.test_case "sort errors" `Quick test_sort_errors;
      q prop_set_ops_model;
      Alcotest.test_case "state basics" `Quick test_state_basics;
      Alcotest.test_case "state sort check" `Quick test_state_sort_check;
      Alcotest.test_case "state equality" `Quick test_state_equality;
      Alcotest.test_case "term eval" `Quick test_term_eval;
      Alcotest.test_case "alerts global" `Quick test_term_alerts_global;
      Alcotest.test_case "term errors" `Quick test_term_errors;
      Alcotest.test_case "formula eval" `Quick test_formula_eval;
      Alcotest.test_case "iff/truth (TestAlert)" `Quick test_formula_iff_truth;
      Alcotest.test_case "formula names" `Quick test_formula_names;
    ] )
