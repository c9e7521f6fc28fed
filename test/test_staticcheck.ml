(* Static spec verifier: pristine spec clean, every seeded mutant caught
   with a distinct diagnostic class, whole-program analysis, the DPOR
   soundness cross-check, and the clause-level linter. *)

open Spec_core
module SC = Threads_staticcheck

let classes findings =
  List.sort_uniq compare
    (List.map (fun (f : SC.Finding.t) -> f.SC.Finding.cls) findings)

let pp_findings fs =
  String.concat "; "
    (List.map (fun f -> Format.asprintf "%a" SC.Finding.pp f) fs)

(* ---- pass 1: spec model checking ---- *)

let test_pristine_clean () =
  let rep = SC.Speccheck.check Threads_interface.final in
  Alcotest.(check string) "zero findings" ""
    (pp_findings rep.SC.Speccheck.rep_findings);
  Alcotest.(check int) "no uncovered cases" 0
    (List.length rep.SC.Speccheck.rep_uncovered)

let test_pristine_coverage_complete () =
  (* the suite's union drives every (proc, action, case) of the spec *)
  let rep = SC.Speccheck.check Threads_interface.final in
  Alcotest.(check (list string)) "all cases reachable" []
    (List.map
       (fun (p, a, ci) -> Printf.sprintf "%s.%s#%d" p a (ci + 1))
       rep.SC.Speccheck.rep_uncovered);
  (* sanity: the interface really has the 20 cases we think it has *)
  Alcotest.(check int) "spec case count" 20
    (List.length (SC.Suite.all_cases Threads_interface.final))

let test_parsed_file_matches_builtin_check () =
  (* check-spec on the shipped file must agree with the builtin *)
  let iface, locs =
    Parser.interface_of_string_located Threads_interface.source
  in
  let rep = SC.Speccheck.check ~locs iface in
  Alcotest.(check string) "zero findings on parsed source" ""
    (pp_findings rep.SC.Speccheck.rep_findings)

let test_mutants_all_caught () =
  let results = SC.Speccheck.check_mutants () in
  Alcotest.(check bool) "at least 8 mutants" true (List.length results >= 8);
  List.iter
    (fun (r : SC.Speccheck.mutant_result) ->
      Alcotest.(check (option string))
        (r.SC.Speccheck.mu_name ^ " primary class")
        (Some r.SC.Speccheck.mu_expected) r.SC.Speccheck.mu_primary;
      Alcotest.(check bool) (r.SC.Speccheck.mu_name ^ " caught") true
        r.SC.Speccheck.mu_caught)
    results

let test_mutant_classes_distinct () =
  let results = SC.Speccheck.check_mutants () in
  let primaries =
    List.filter_map (fun r -> r.SC.Speccheck.mu_primary) results
  in
  Alcotest.(check int) "primary classes pairwise distinct"
    (List.length results)
    (List.length (List.sort_uniq compare primaries))

let test_wakeup_waiting_rediscovered () =
  (* the paper's reason for Wait's two-action split: mutate Enqueue to
     keep the mutex and the wakeup-waiting window reappears *)
  match SC.Spec_mutants.find "enqueue-keeps-mutex" with
  | None -> Alcotest.fail "mutant missing"
  | Some m ->
    let r =
      SC.Engine.run m.SC.Spec_mutants.m_iface SC.Suite.wait_signal
    in
    Alcotest.(check bool) "no delivery reachable" false
      r.SC.Engine.r_delivery_reachable;
    Alcotest.(check bool) "wakeup-window reported" true
      (List.mem "wakeup-window" (classes r.SC.Engine.r_findings))

let test_pristine_delivery_reachable () =
  let r = SC.Engine.run Threads_interface.final SC.Suite.wait_signal in
  Alcotest.(check bool) "delivery reachable" true
    r.SC.Engine.r_delivery_reachable;
  Alcotest.(check string) "no findings" ""
    (pp_findings r.SC.Engine.r_findings)

(* Stuck-node findings name threads by tid, as every other finding does:
   the alerted waiter of alert-wait is program 0, thread t1. *)
let test_stuck_findings_name_tids () =
  match SC.Spec_mutants.find "alert-resume-overguarded" with
  | None -> Alcotest.fail "mutant missing"
  | Some m ->
    let r = SC.Engine.run m.SC.Spec_mutants.m_iface SC.Suite.alert_wait in
    Alcotest.(check (list string)) "alert-loss names t1"
      [ "threads {t1} are alerted but parked forever in AlertResume" ]
      (List.filter_map
         (fun (f : SC.Finding.t) ->
           if f.SC.Finding.cls = "alert-loss" then Some f.SC.Finding.msg
           else None)
         r.SC.Engine.r_findings)

let test_determinism () =
  let a = SC.Speccheck.check_mutants () in
  let b = SC.Speccheck.check_mutants () in
  Alcotest.(check bool) "mutant sweep deterministic" true (a = b)

(* ---- effect summaries ---- *)

let test_effects () =
  let iface = Threads_interface.final in
  let eff name =
    match SC.Effects.mutex_effects iface (Proc.find_proc iface name) with
    | e :: _ -> e
    | [] -> Alcotest.fail (name ^ ": no mutex effect")
  in
  let check_eff name ~held ~post ~delays =
    let e = eff name in
    Alcotest.(check bool) (name ^ " requires_held") held
      e.SC.Effects.e_requires_held;
    Alcotest.(check string) (name ^ " post") post
      (SC.Effects.lockpost_name e.SC.Effects.e_post);
    Alcotest.(check bool) (name ^ " delays") delays e.SC.Effects.e_delays
  in
  check_eff "Acquire" ~held:false ~post:"held" ~delays:true;
  check_eff "Release" ~held:true ~post:"freed" ~delays:false;
  check_eff "Wait" ~held:true ~post:"held" ~delays:true;
  check_eff "AlertWait" ~held:true ~post:"held" ~delays:true;
  check_eff "TimedWait" ~held:true ~post:"held" ~delays:true;
  (* TimedP's timeout case is unguarded: it never delays *)
  Alcotest.(check bool) "TimedP never delays" false
    (SC.Lint.may_delay iface (Proc.find_proc iface "TimedP"));
  Alcotest.(check bool) "P may delay" true
    (SC.Lint.may_delay iface (Proc.find_proc iface "P"))

(* ---- pass 2: whole-program analysis ---- *)

let test_progcheck_harness_clean () =
  let iface = Threads_interface.final in
  List.iter
    (fun scenario ->
      let rep = SC.Progcheck.check iface scenario in
      Alcotest.(check string)
        (rep.SC.Progcheck.p_scenario ^ " clean")
        ""
        (pp_findings rep.SC.Progcheck.p_findings))
    (Threads_harness.Scenarios.progcheck_catalogue ())

let test_progcheck_demos () =
  let iface = Threads_interface.final in
  let expected =
    [
      ("lock-inversion-static", "lock-order-cycle");
      ("double-acquire-static", "double-acquire");
      ("unheld-release-static", "requires-unheld");
      ("interrupt-blocking-static", "interrupt-blocking");
    ]
  in
  List.iter
    (fun scenario ->
      let rep = SC.Progcheck.check iface scenario in
      let name = rep.SC.Progcheck.p_scenario in
      let want = List.assoc name expected in
      Alcotest.(check bool)
        (name ^ " flags " ^ want)
        true
        (List.mem want (classes rep.SC.Progcheck.p_findings)))
    SC.Progcheck.demo_scenarios

let test_lock_order_edges () =
  let iface = Threads_interface.final in
  let rep =
    SC.Progcheck.check iface (List.hd SC.Progcheck.demo_scenarios)
  in
  Alcotest.(check bool) "a->b edge" true
    (List.mem ("a", "b") rep.SC.Progcheck.p_edges);
  Alcotest.(check bool) "b->a edge" true
    (List.mem ("b", "a") rep.SC.Progcheck.p_edges)

(* ---- DPOR soundness cross-check ---- *)

let test_crossval_sound () =
  let entries =
    SC.Crossval.run Threads_interface.final
      (List.map
         (fun (s : Threads_harness.Explore_scenarios.t) -> (s.name, s.expect))
         Threads_harness.Explore_scenarios.all)
  in
  List.iter
    (fun (e : SC.Crossval.entry) ->
      Alcotest.(check bool)
        (e.SC.Crossval.x_scenario ^ " dynamic ⊆ static")
        true e.SC.Crossval.x_ok)
    entries;
  let static_of name =
    let e =
      List.find (fun e -> e.SC.Crossval.x_scenario = name) entries
    in
    e.SC.Crossval.x_static_classes
  in
  Alcotest.(check (list string)) "naive-broadcast static" [ "deadlock" ]
    (static_of "naive-broadcast");
  Alcotest.(check (list string)) "hoare-signal static" [ "spec-conformance" ]
    (static_of "hoare-signal");
  Alcotest.(check (list string)) "wakeup-waiting static clean" []
    (static_of "wakeup-waiting");
  Alcotest.(check (list string)) "alert-cancel static clean" []
    (static_of "alert-cancel");
  Alcotest.(check (list string)) "disjoint-locks static clean" []
    (static_of "disjoint-locks")

let test_classify () =
  Alcotest.(check string) "deadlock" "deadlock"
    (SC.Crossval.classify "stranded waiter: deadlock blocked=[0,1]");
  Alcotest.(check string) "conformance" "spec-conformance"
    (SC.Crossval.classify "x admitted by no case: y");
  Alcotest.(check string) "invariant" "invariant"
    (SC.Crossval.classify "foo: invariant bar violated")

(* ---- the clause-level linter ---- *)

let contains = Test_util.contains

let test_linter_accepts_threads_spec () =
  let iface = Parser.interface_of_string Threads_interface.source in
  let findings = SC.Lint.lint iface in
  Alcotest.(check string) "no errors on the shipped spec" ""
    (pp_findings (SC.Finding.errors findings))

let lint_errors_of src =
  SC.Finding.errors (SC.Lint.lint (Parser.interface_of_string src))

let test_linter_rejects_dead_when () =
  let errs =
    lint_errors_of
      "INTERFACE Bad\n\
       TYPE Mutex = Thread INITIALLY NIL\n\
       ATOMIC PROCEDURE Acquire(VAR m: Mutex)\n\
       MODIFIES AT MOST [m]\n\
       RETURNS\n\
       WHEN m = NIL & ~(m = NIL)\n\
       ENSURES m_post = SELF\n"
  in
  Alcotest.(check bool) "dead WHEN reported" true
    (List.exists
       (fun (f : SC.Finding.t) ->
         contains f.SC.Finding.msg "never satisfiable")
       errs)

let test_linter_rejects_unsatisfiable_ensures () =
  let errs =
    lint_errors_of
      "INTERFACE Bad\n\
       TYPE Mutex = Thread INITIALLY NIL\n\
       ATOMIC PROCEDURE Acquire(VAR m: Mutex)\n\
       MODIFIES AT MOST [m]\n\
       RETURNS\n\
       WHEN m = NIL\n\
       ENSURES m_post = SELF & ~(m_post = SELF)\n"
  in
  Alcotest.(check bool) "unimplementable ENSURES reported" true
    (List.exists
       (fun (f : SC.Finding.t) ->
         contains f.SC.Finding.msg "no post state")
       errs)

let test_linter_rejects_ensures_outside_modifies () =
  (* ENSURES constrains m_post but no MODIFIES clause names m: a
     well-formedness violation, reported before any clause checking. *)
  let errs =
    lint_errors_of
      "INTERFACE Bad\n\
       TYPE Mutex = Thread INITIALLY NIL\n\
       ATOMIC PROCEDURE Acquire(VAR m: Mutex)\n\
       RETURNS\n\
       WHEN m = NIL\n\
       ENSURES m_post = SELF\n"
  in
  Alcotest.(check bool) "ENSURES outside MODIFIES reported" true (errs <> [])

let test_linter_warns_unconstrained_modifies () =
  let findings =
    SC.Lint.lint
      (Parser.interface_of_string
         "INTERFACE Odd\n\
          TYPE Mutex = Thread INITIALLY NIL\n\
          ATOMIC PROCEDURE Poke(VAR m: Mutex)\n\
          MODIFIES AT MOST [m]\n\
          RETURNS\n\
          ENSURES TRUE\n")
  in
  Alcotest.(check bool) "no errors" true (SC.Finding.errors findings = []);
  Alcotest.(check bool) "warning about unconstrained m" true
    (List.exists
       (fun (f : SC.Finding.t) ->
         f.SC.Finding.severity = SC.Finding.Warning
         && contains f.SC.Finding.msg "no ENSURES constrains")
       findings)

let suite =
  ( "staticcheck",
    [
      Alcotest.test_case "pristine spec clean" `Quick test_pristine_clean;
      Alcotest.test_case "coverage complete" `Quick
        test_pristine_coverage_complete;
      Alcotest.test_case "parsed file clean" `Quick
        test_parsed_file_matches_builtin_check;
      Alcotest.test_case "all mutants caught" `Quick test_mutants_all_caught;
      Alcotest.test_case "mutant classes distinct" `Quick
        test_mutant_classes_distinct;
      Alcotest.test_case "wakeup-waiting rediscovered" `Quick
        test_wakeup_waiting_rediscovered;
      Alcotest.test_case "pristine delivery reachable" `Quick
        test_pristine_delivery_reachable;
      Alcotest.test_case "stuck findings name tids" `Quick
        test_stuck_findings_name_tids;
      Alcotest.test_case "deterministic" `Quick test_determinism;
      Alcotest.test_case "effect summaries" `Quick test_effects;
      Alcotest.test_case "harness scenarios clean" `Quick
        test_progcheck_harness_clean;
      Alcotest.test_case "defect demos flagged" `Quick test_progcheck_demos;
      Alcotest.test_case "lock-order edges" `Quick test_lock_order_edges;
      Alcotest.test_case "crossval sound" `Quick test_crossval_sound;
      Alcotest.test_case "dynamic classification" `Quick test_classify;
      Alcotest.test_case "linter accepts the Threads spec" `Quick
        test_linter_accepts_threads_spec;
      Alcotest.test_case "linter rejects a dead WHEN" `Quick
        test_linter_rejects_dead_when;
      Alcotest.test_case "linter rejects unsatisfiable ENSURES" `Quick
        test_linter_rejects_unsatisfiable_ensures;
      Alcotest.test_case "linter rejects ENSURES outside MODIFIES" `Quick
        test_linter_rejects_ensures_outside_modifies;
      Alcotest.test_case "linter warns on unconstrained MODIFIES" `Quick
        test_linter_warns_unconstrained_modifies;
    ] )
