(* Direct tests of the trace-conformance checker on hand-crafted traces. *)

open Spec_core
module T = Spec_trace
module Conf = Threads_model.Conformance

let ev self action = { T.self; action }
let m = 100
let c = 200
let s = 300

let check ?(iface = Threads_interface.final) trace = Conf.check iface trace

let test_simple_lock () =
  let r =
    check
      [
        ev 1 (Acquire { m });
        ev 1 (Release { m });
        ev 2 (Acquire { m });
        ev 2 (Release { m });
      ]
  in
  Alcotest.(check bool) "accepted" true (Conf.ok r);
  Alcotest.(check int) "events" 4 r.Conf.events;
  Alcotest.(check int) "no requires issues" 0
    (List.length r.Conf.requires_violations)

let test_double_acquire_rejected () =
  let r =
    check [ ev 1 (Acquire { m }); ev 2 (Acquire { m }) ]
  in
  Alcotest.(check bool) "rejected" false (Conf.ok r);
  Alcotest.(check int) "second event flagged" 1
    (List.length r.Conf.errors)

let test_release_by_stranger () =
  (* Release's effect satisfies its (unconditional) ENSURES, but REQUIRES
     m = SELF is the caller's obligation: flagged separately. *)
  let r =
    check [ ev 1 (Acquire { m }); ev 2 (Release { m }) ]
  in
  Alcotest.(check bool) "spec-level ok" true (Conf.ok r);
  Alcotest.(check int) "caller flagged" 1
    (List.length r.Conf.requires_violations)

let test_wait_composition_order () =
  let ok_trace =
    [
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = Wait; m; c });
      ev 2 (Signal { c; removed = [ 1 ] });
      ev 1 (Resume { m; c });
      ev 1 (Release { m });
    ]
  in
  Alcotest.(check bool) "wait accepted" true (Conf.ok (check ok_trace));
  (* Resume without Enqueue *)
  let bad = [ ev 1 (Resume { m; c }) ] in
  Alcotest.(check bool) "bare resume rejected" false (Conf.ok (check bad));
  (* Resume before the signal removes the thread *)
  let too_early =
    [
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = Wait; m; c });
      ev 1 (Resume { m; c });
    ]
  in
  Alcotest.(check bool) "self-resume rejected" false
    (Conf.ok (check too_early))

let test_signal_subset_rule () =
  (* removing a thread not in c is harmless (delete is a no-op; c_post is
     still a subset), but Broadcast leaving a member is a violation *)
  let harmless =
    [
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = Wait; m; c });
      ev 2 (Signal { c; removed = [ 9 ] });
    ]
  in
  Alcotest.(check bool) "phantom removal fine" true (Conf.ok (check harmless));
  let bad_broadcast =
    [
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = Wait; m; c });
      ev 2 (Broadcast { c; removed = [] });
    ]
  in
  Alcotest.(check bool) "broadcast leaving member rejected" false
    (Conf.ok (check bad_broadcast))

let test_semaphore_trace () =
  let r =
    check
      [
        ev 1 (P { s });
        ev 2 (V { s });
        (* V by another thread: no REQUIRES on V *)
        ev 2 (P { s });
      ]
  in
  Alcotest.(check bool) "P/V accepted" true (Conf.ok r);
  Alcotest.(check int) "no requires issues (V has none)" 0
    (List.length r.Conf.requires_violations);
  (* P while unavailable *)
  let bad = [ ev 1 (P { s }); ev 2 (P { s }) ] in
  Alcotest.(check bool) "double P rejected" false (Conf.ok (check bad))

let test_alert_trace () =
  let r =
    check
      [
        ev 1 (Alert { t = 2 });
        ev 2 (TestAlert { result = true });
        ev 2 (TestAlert { result = false });
      ]
  in
  Alcotest.(check bool) "alert/test accepted" true (Conf.ok r);
  (* wrong TestAlert result *)
  let bad =
    [
      ev 1 (Alert { t = 2 });
      ev 2 (TestAlert { result = false });
    ]
  in
  Alcotest.(check bool) "wrong result rejected" false (Conf.ok (check bad))

let alert_wait_raise_trace =
  [
    ev 2 (Alert { t = 1 });
    ev 1 (Acquire { m });
    ev 1 (Enqueue { proc = AlertWait; m; c });
    ev 1 (AlertResume { m; c; alerted = true });
  ]

let test_alert_wait_variants () =
  (* the same trace, judged by three versions of the spec *)
  Alcotest.(check bool) "final accepts" true
    (Conf.ok (check alert_wait_raise_trace));
  (* Nelson's variant requires UNCHANGED [c]; the implementation removes
     self from c, so the buggy spec rejects the (correct) behaviour *)
  Alcotest.(check bool) "nelson variant rejects" false
    (Conf.ok (check ~iface:Threads_interface.nelson_bug alert_wait_raise_trace));
  (* returning normally while alerted: fine under final, rejected by the
     original must-raise spec *)
  let return_while_alerted =
    [
      ev 2 (Alert { t = 1 });
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = AlertWait; m; c });
      ev 2 (Signal { c; removed = [ 1 ] });
      ev 1 (AlertResume { m; c; alerted = false });
    ]
  in
  Alcotest.(check bool) "final accepts normal return" true
    (Conf.ok (check return_while_alerted));
  Alcotest.(check bool) "must-raise rejects" false
    (Conf.ok (check ~iface:Threads_interface.must_raise return_while_alerted))

let test_missing_guard_variant_is_weaker () =
  (* Under the missing-guard variant, raising while the mutex is held is
     allowed (that's the bug); the final spec rejects the same trace. *)
  let raise_while_held =
    [
      ev 3 (Alert { t = 1 });
      ev 1 (Acquire { m });
      ev 1 (Enqueue { proc = AlertWait; m; c });
      ev 2 (Acquire { m });
      ev 1 (AlertResume { m; c; alerted = true });
    ]
  in
  Alcotest.(check bool) "buggy variant admits the disaster" true
    (Conf.ok (check ~iface:Threads_interface.missing_mutex_guard raise_while_held));
  Alcotest.(check bool) "final rejects it" false
    (Conf.ok (check raise_while_held))

let test_unknown_proc () =
  (* an interface without TimedP cannot judge a TimedP event *)
  let iface =
    { Threads_interface.final with
      i_procs =
        List.filter
          (fun (p : Proc.t) -> p.p_name <> "TimedP")
          Threads_interface.final.i_procs }
  in
  let r = check ~iface [ ev 1 (TimedP { s; timed_out = false }) ] in
  Alcotest.(check (list string)) "rejected for its procedure"
    [ "no such procedure in the interface" ]
    (List.map (fun (e : Conf.error) -> e.message) r.Conf.errors)

let test_object_sort_stability () =
  (* the same implementation object used as both mutex and condition *)
  Alcotest.(check bool) "sort clash detected" false
    (Conf.ok
       (check
          [
            ev 1 (Acquire { m = 7 });
            ev 1 (Signal { c = 7; removed = [] });
          ]))

(* Every action's printed form, pinned before the event type changed:
   traces, conformance reports and goldens print events this way. *)
let test_event_printing () =
  let cases =
    [
      (ev 1 (Acquire { m }), "t1: Acquire.Acquire(m=#100)");
      (ev 1 (Release { m }), "t1: Release.Release(m=#100)");
      (ev 1 (Enqueue { proc = Wait; m; c }), "t1: Wait.Enqueue(m=#100, c=#200)");
      (ev 1 (Enqueue { proc = AlertWait; m; c = -3 }),
       "t1: AlertWait.Enqueue(m=#100, c=#-3)");
      (ev 1 (Enqueue { proc = TimedWait; m; c }),
       "t1: TimedWait.Enqueue(m=#100, c=#200)");
      (ev 1 (Resume { m; c }), "t1: Wait.Resume(m=#100, c=#200)");
      (ev 1 (AlertResume { m; c; alerted = false }),
       "t1: AlertWait.AlertResume(m=#100, c=#200)");
      (ev 1 (AlertResume { m; c; alerted = true }),
       "t1: AlertWait.AlertResume(m=#100, c=#200) raises Alerted");
      (ev 1 (TimedResume { m; c; timed_out = false }),
       "t1: TimedWait.TimedResume(m=#100, c=#200)");
      (ev 1 (TimedResume { m; c; timed_out = true }),
       "t1: TimedWait.TimedResume(m=#100, c=#200) raises TimedOut");
      (ev 2 (Signal { c; removed = [] }), "t2: Signal.Signal(c=#200)");
      (ev 2 (Signal { c; removed = [ 3; 1; 3 ] }),
       "t2: Signal.Signal(c=#200) removed={t1, t3}");
      (ev 0 (Broadcast { c; removed = [] }), "t0: Broadcast.Broadcast(c=#200)");
      (ev 0 (Broadcast { c; removed = [ 2; 1 ] }),
       "t0: Broadcast.Broadcast(c=#200) removed={t1, t2}");
      (ev 1 (P { s }), "t1: P.P(s=#300)");
      (ev 2 (V { s }), "t2: V.V(s=#300)");
      (ev 1 (Alert { t = 2 }), "t1: Alert.Alert(t=t2)");
      (ev 2 (TestAlert { result = true }), "t2: TestAlert.TestAlert() -> true");
      (ev 2 (TestAlert { result = false }), "t2: TestAlert.TestAlert() -> false");
      (ev 1 (AlertP { s; alerted = false }), "t1: AlertP.AlertP(s=#300)");
      (ev 1 (AlertP { s; alerted = true }),
       "t1: AlertP.AlertP(s=#300) raises Alerted");
      (ev 1 (TimedP { s; timed_out = false }), "t1: TimedP.TimedP(s=#300)");
      (ev 1 (TimedP { s; timed_out = true }),
       "t1: TimedP.TimedP(s=#300) raises TimedOut");
    ]
  in
  List.iter
    (fun (e, text) ->
      Alcotest.(check string) text text (T.event_to_string e))
    cases

let suite =
  ( "conformance",
    [
      Alcotest.test_case "simple lock trace" `Quick test_simple_lock;
      Alcotest.test_case "double acquire rejected" `Quick
        test_double_acquire_rejected;
      Alcotest.test_case "release by stranger" `Quick test_release_by_stranger;
      Alcotest.test_case "wait composition order" `Quick
        test_wait_composition_order;
      Alcotest.test_case "signal subset rule" `Quick test_signal_subset_rule;
      Alcotest.test_case "semaphore traces" `Quick test_semaphore_trace;
      Alcotest.test_case "alert traces" `Quick test_alert_trace;
      Alcotest.test_case "AlertWait across spec variants" `Quick
        test_alert_wait_variants;
      Alcotest.test_case "missing-guard variant is weaker" `Quick
        test_missing_guard_variant_is_weaker;
      Alcotest.test_case "unknown procedure" `Quick test_unknown_proc;
      Alcotest.test_case "object sort stability" `Quick
        test_object_sort_stability;
      Alcotest.test_case "event printing" `Quick test_event_printing;
    ] )
