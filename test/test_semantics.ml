(* Tests for the executable spec semantics: outcome enumeration and
   transition checking. *)

open Spec_core
module Tid = Threads_util.Tid

let iface = Threads_interface.final
let set_of xs = Value.Set (Tid.Set.of_int_list xs)

let proc name = Proc.find_proc iface name

let obj name sort = Spec_obj.create name sort

(* Procedure [pname] of [iface], compiled and applied to [args] over
   [st]'s layout. *)
let call_of ?(iface = iface) pname args st =
  Semantics.call
    (Semantics.find (Semantics.compile iface) pname)
    (Semantics.bindings_of_args iface (Proc.find_proc iface pname) args)
    st

(* The outcomes of the first action. *)
let outcomes_of ?(self = 1) pname args st =
  Semantics.outcomes (call_of pname args st) ~self 0 st

let test_acquire () =
  let m = obj "m" Sort.Thread in
  let st = State.add m Value.Nil State.empty in
  (match outcomes_of "Acquire" [ `Obj m ] st with
  | [ o ] ->
    Alcotest.(check bool) "m_post = SELF" true
      (Value.equal (State.get o.Semantics.o_post m) (Value.Thread 1))
  | outs -> Alcotest.fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outs)));
  (* blocked when held *)
  let held = State.set st m (Value.Thread 2) in
  Alcotest.(check int) "blocked" 0
    (List.length (outcomes_of "Acquire" [ `Obj m ] held))

let test_release () =
  let m = obj "m" Sort.Thread in
  let st = State.add m (Value.Thread 1) State.empty in
  (match outcomes_of "Release" [ `Obj m ] st with
  | [ o ] ->
    Alcotest.(check bool) "m_post = NIL" true
      (Value.equal (State.get o.Semantics.o_post m) Value.Nil)
  | _ -> Alcotest.fail "expected exactly 1 outcome")

let test_requires () =
  let m = obj "m" Sort.Thread in
  let st = State.add m (Value.Thread 2) State.empty in
  let requires self =
    Semantics.requires_holds (call_of "Release" [ `Obj m ] st) ~self st
  in
  Alcotest.(check bool) "requires m=SELF false for t1" false (requires 1);
  Alcotest.(check bool) "requires m=SELF true for t2" true (requires 2)

let test_signal_outcomes () =
  let c = obj "c" Sort.Thread_set in
  let st = State.add c (set_of [ 2; 3 ]) State.empty in
  let outs = outcomes_of "Signal" [ `Obj c ] st in
  let posts =
    List.map (fun o -> Value.to_string (State.get o.Semantics.o_post c)) outs
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "signal finitized outcomes"
    (List.sort compare [ "{}"; "{t2, t3}"; "{t2}"; "{t3}" ])
    posts

let test_broadcast_outcome () =
  let c = obj "c" Sort.Thread_set in
  let st = State.add c (set_of [ 2; 3 ]) State.empty in
  match outcomes_of "Broadcast" [ `Obj c ] st with
  | [ o ] ->
    Alcotest.(check bool) "c_post = {}" true
      (Value.equal (State.get o.Semantics.o_post c) (set_of []))
  | outs ->
    Alcotest.fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outs))

let test_p_v () =
  let s = obj "s" Sort.Semaphore in
  let st = State.add s (Value.Sem Value.Available) State.empty in
  (match outcomes_of "P" [ `Obj s ] st with
  | [ o ] ->
    Alcotest.(check bool) "P takes" true
      (Value.equal (State.get o.Semantics.o_post s) (Value.Sem Value.Unavailable))
  | _ -> Alcotest.fail "P should have 1 outcome");
  let taken = State.set st s (Value.Sem Value.Unavailable) in
  Alcotest.(check int) "P blocks" 0 (List.length (outcomes_of "P" [ `Obj s ] taken));
  (match outcomes_of "V" [ `Obj s ] taken with
  | [ o ] ->
    Alcotest.(check bool) "V releases" true
      (Value.equal (State.get o.Semantics.o_post s) (Value.Sem Value.Available))
  | _ -> Alcotest.fail "V should have 1 outcome")

let test_alert_by_value () =
  let st = State.empty in
  match outcomes_of ~self:1 "Alert" [ `Val (Value.Thread 5) ] st with
  | [ o ] ->
    Alcotest.(check bool) "alerts gains t5" true
      (Tid.Set.mem 5 (State.alerts o.Semantics.o_post))
  | _ -> Alcotest.fail "Alert should have 1 outcome"

let test_test_alert_result () =
  let st = State.set_alerts State.empty (Tid.Set.singleton 1) in
  (match outcomes_of ~self:1 "TestAlert" [] st with
  | [ o ] ->
    Alcotest.(check (option bool)) "b = true"
      (Some true)
      (Option.map Value.as_bool o.Semantics.o_result);
    Alcotest.(check bool) "alerts cleared" true
      (Tid.Set.is_empty (State.alerts o.Semantics.o_post))
  | outs ->
    Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length outs)));
  match outcomes_of ~self:2 "TestAlert" [] st with
  | [ o ] ->
    Alcotest.(check (option bool)) "b = false for t2"
      (Some false)
      (Option.map Value.as_bool o.Semantics.o_result)
  | _ -> Alcotest.fail "expected 1 outcome"

let test_alert_p_nondeterminism () =
  let s = obj "s" Sort.Semaphore in
  let st =
    State.add s (Value.Sem Value.Available) State.empty
    |> fun st -> State.set_alerts st (Tid.Set.singleton 1)
  in
  let outs = outcomes_of ~self:1 "AlertP" [ `Obj s ] st in
  let kinds =
    List.map (fun o -> o.Semantics.o_outcome) outs |> List.sort_uniq compare
  in
  Alcotest.(check int) "both RETURNS and RAISES possible" 2 (List.length kinds)

let test_wait_composition () =
  let m = obj "m" Sort.Thread in
  let c = obj "c" Sort.Thread_set in
  let st =
    State.empty |> State.add m (Value.Thread 1) |> State.add c (set_of [])
  in
  let wait st = call_of "Wait" [ `Obj m; `Obj c ] st in
  (* Enqueue *)
  (match Semantics.outcomes (wait st) ~self:1 0 st with
  | [ o ] ->
    Alcotest.(check bool) "enqueue effect" true
      (Value.equal (State.get o.Semantics.o_post m) Value.Nil
      && Value.equal (State.get o.Semantics.o_post c) (set_of [ 1 ]))
  | _ -> Alcotest.fail "Enqueue should be deterministic");
  (* Resume blocked while SELF in c *)
  let mid =
    State.empty |> State.add m Value.Nil |> State.add c (set_of [ 1 ])
  in
  Alcotest.(check int) "resume blocked" 0
    (List.length
       (Semantics.outcomes (wait mid) ~self:1 1 mid));
  (* Resume fires after removal *)
  let out = State.set mid c (set_of []) in
  match Semantics.outcomes (wait out) ~self:1 1 out with
  | [ o ] ->
    Alcotest.(check bool) "resume takes mutex" true
      (Value.equal (State.get o.Semantics.o_post m) (Value.Thread 1))
  | _ -> Alcotest.fail "Resume should fire"

let test_bindings_errors () =
  let m = obj "m" Sort.Thread in
  let p = proc "Acquire" in
  Alcotest.(check bool) "arity" true
    (try ignore (Semantics.bindings_of_args iface p []); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "VAR needs obj" true
    (try ignore (Semantics.bindings_of_args iface p [ `Val (Value.Thread 1) ]); false
     with Invalid_argument _ -> true);
  let c = obj "c" Sort.Thread_set in
  Alcotest.(check bool) "sort mismatch" true
    (try ignore (Semantics.bindings_of_args iface p [ `Obj c ]); false
     with Invalid_argument _ -> true);
  ignore m

let test_check_transition () =
  let m = obj "m" Sort.Thread in
  let pre = State.add m Value.Nil State.empty in
  let acquire pre = call_of "Acquire" [ `Obj m ] pre in
  let good = State.set pre m (Value.Thread 1) in
  (match
     Semantics.check_transition (acquire pre) ~self:1 0 ~pre ~post:good
       ~outcome:Proc.Returns ~result:None
   with
  | Ok 0 -> ()
  | Ok i -> Alcotest.fail (Printf.sprintf "wrong case %d" i)
  | Error e -> Alcotest.fail e);
  (* wrong thread claims the mutex *)
  let bad = State.set pre m (Value.Thread 9) in
  (match
     Semantics.check_transition (acquire pre) ~self:1 0 ~pre ~post:bad
       ~outcome:Proc.Returns ~result:None
   with
  | Ok _ -> Alcotest.fail "should reject m_post <> SELF"
  | Error _ -> ());
  (* frame violation: touching an object outside MODIFIES *)
  let c = obj "c" Sort.Thread_set in
  let pre2 = State.add c (set_of []) pre in
  let post2 =
    State.set (State.set pre2 m (Value.Thread 1)) c (set_of [ 7 ])
  in
  match
    Semantics.check_transition (acquire pre2) ~self:1 0 ~pre:pre2 ~post:post2
      ~outcome:Proc.Returns ~result:None
  with
  | Ok _ -> Alcotest.fail "should reject frame violation"
  | Error msg ->
    Alcotest.(check bool) "mentions MODIFIES" true
      (String.split_on_char ' ' msg |> List.exists (fun w -> w = "MODIFIES"))

(* Every enumerated outcome must satisfy the clauses it was derived from —
   the two tiers police each other. *)
let prop_outcomes_satisfy_clauses =
  QCheck.Test.make ~name:"outcomes are self-consistent" ~count:200
    QCheck.(triple (int_range 1 3) (int_range 0 2) (list_of_size (Gen.int_range 0 3) (int_range 1 3)))
    (fun (self, holder, members) ->
      let m = obj "m" Sort.Thread in
      let c = obj "c" Sort.Thread_set in
      let st =
        State.empty
        |> State.add m (if holder = 0 then Value.Nil else Value.Thread holder)
        |> State.add c (set_of members)
      in
      List.for_all
        (fun pname ->
          let p = proc pname in
          let args =
            List.map
              (fun (f : Proc.formal) ->
                if f.f_type = "Mutex" then `Obj m else `Obj c)
              p.Proc.p_formals
          in
          let call = call_of pname args st in
          List.for_all
            (fun k ->
              List.for_all
                (fun (o : Semantics.outcome) ->
                  match
                    Semantics.check_transition call ~self k ~pre:st ~post:o.o_post
                      ~outcome:o.o_outcome ~result:o.o_result
                  with
                  | Ok _ -> true
                  | Error _ -> false)
                (Semantics.outcomes call ~self k st))
            (List.init (List.length (Proc.actions p)) Fun.id))
        [ "Acquire"; "Release"; "Signal"; "Broadcast"; "Wait" ])

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "semantics",
    [
      Alcotest.test_case "Acquire" `Quick test_acquire;
      Alcotest.test_case "Release" `Quick test_release;
      Alcotest.test_case "REQUIRES" `Quick test_requires;
      Alcotest.test_case "Signal outcomes" `Quick test_signal_outcomes;
      Alcotest.test_case "Broadcast outcome" `Quick test_broadcast_outcome;
      Alcotest.test_case "P/V" `Quick test_p_v;
      Alcotest.test_case "Alert by value" `Quick test_alert_by_value;
      Alcotest.test_case "TestAlert result" `Quick test_test_alert_result;
      Alcotest.test_case "AlertP non-determinism" `Quick
        test_alert_p_nondeterminism;
      Alcotest.test_case "Wait composition" `Quick test_wait_composition;
      Alcotest.test_case "bindings errors" `Quick test_bindings_errors;
      Alcotest.test_case "check_transition" `Quick test_check_transition;
      q prop_outcomes_satisfy_clauses;
    ] )

(* --- historical variants at the semantics level --- *)

let test_missing_guard_enables_raise_while_held () =
  let m = obj "m" Sort.Thread in
  let c = obj "c" Sort.Thread_set in
  (* t2 holds the mutex; t1 is alerted and enqueued *)
  let st =
    State.empty
    |> State.add m (Value.Thread 2)
    |> State.add c (set_of [ 1 ])
    |> fun st -> State.set_alerts st (Tid.Set.singleton 1)
  in
  (* AlertResume is AlertWait's action 1. *)
  let enabled variant =
    Semantics.enabled
      (call_of ~iface:variant "AlertWait" [ `Obj m; `Obj c ] st) ~self:1 1 st
  in
  Alcotest.(check (list int)) "final: blocked while held" []
    (enabled Threads_interface.final);
  Alcotest.(check (list int)) "buggy: raise case enabled" [ 1 ]
    (enabled Threads_interface.missing_mutex_guard)

let test_nelson_keeps_self_in_c () =
  let m = obj "m" Sort.Thread in
  let c = obj "c" Sort.Thread_set in
  let st =
    State.empty |> State.add m Value.Nil |> State.add c (set_of [ 1 ])
    |> fun st -> State.set_alerts st (Tid.Set.singleton 1)
  in
  let outcomes variant =
    List.filter
      (fun (o : Semantics.outcome) -> o.o_outcome = Proc.Raises "Alerted")
      (Semantics.outcomes
         (call_of ~iface:variant "AlertWait" [ `Obj m; `Obj c ] st) ~self:1 1 st)
  in
  (* final: the raise removes self from c *)
  List.iter
    (fun (o : Semantics.outcome) ->
      Alcotest.(check bool) "final removes self" false
        (Value.member (Value.Thread 1) (State.get o.Semantics.o_post c)))
    (outcomes Threads_interface.final);
  (* nelson: the raise must keep self in c *)
  let nelson_raises = outcomes Threads_interface.nelson_bug in
  Alcotest.(check bool) "nelson has raise outcomes" true (nelson_raises <> []);
  List.iter
    (fun (o : Semantics.outcome) ->
      Alcotest.(check bool) "nelson keeps self" true
        (Value.member (Value.Thread 1) (State.get o.Semantics.o_post c)))
    nelson_raises

let test_must_raise_disables_normal_return () =
  let s = obj "s" Sort.Semaphore in
  let st =
    State.add s (Value.Sem Value.Available) State.empty |> fun st ->
    State.set_alerts st (Tid.Set.singleton 1)
  in
  let kinds variant =
    Semantics.outcomes (call_of ~iface:variant "AlertP" [ `Obj s ] st) ~self:1 0 st
    |> List.map (fun (o : Semantics.outcome) -> o.o_outcome)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "final: both kinds" 2
    (List.length (kinds Threads_interface.final));
  Alcotest.(check (list bool)) "must-raise: only the exception"
    [ true ]
    (List.map
       (function Proc.Raises _ -> true | Proc.Returns -> false)
       (kinds Threads_interface.must_raise))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "variant: raise-while-held enabled only when buggy"
          `Quick test_missing_guard_enables_raise_while_held;
        Alcotest.test_case "variant: nelson keeps self in c" `Quick
          test_nelson_keeps_self_in_c;
        Alcotest.test_case "variant: must-raise kills the normal return"
          `Quick test_must_raise_disables_normal_return;
      ] )
