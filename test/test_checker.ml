(* Tests of the spec-level model checker on the shared scenarios. *)

open Spec_core
module C = Threads_model.Checker
module P = Threads_model.Program
module S = Threads_harness.Scenarios

let no_violation name r =
  match r.C.violation with
  | None -> ()
  | Some v -> Alcotest.fail (Printf.sprintf "%s: unexpected %s" name v.message)

let violated kind name (r : C.result) =
  match r.C.violation with
  | Some v when v.kind = kind -> v
  | Some v ->
    Alcotest.fail (Printf.sprintf "%s: wrong violation kind (%s)" name v.message)
  | None -> Alcotest.fail (name ^ ": expected a violation")

let test_mutex_ok () =
  List.iter
    (fun n ->
      let r = C.run Threads_interface.final (S.mutex_contention n) in
      no_violation "mutex" r;
      Alcotest.(check bool) "explored some states" true (r.C.states > n))
    [ 2; 3; 4 ]

let test_state_counts_grow () =
  let states n =
    (C.run Threads_interface.final (S.mutex_contention n)).C.states
  in
  Alcotest.(check bool) "monotone growth" true (states 2 < states 3);
  Alcotest.(check bool) "more growth" true (states 3 < states 4)

let test_wait_broadcast_ok () =
  let r = C.run Threads_interface.final (S.wait_signal 2) in
  no_violation "wait/broadcast" r

let test_pv_ok () =
  let r = C.run Threads_interface.final (S.semaphore_pingpong ()) in
  no_violation "P/V" r

let test_deadlock_detected () =
  (* One thread does P twice: the second must block forever. *)
  let scen =
    P.make ~name:"double P"
      ~objects:[ ("s", Sort.Semaphore) ]
      ~programs:[ [ P.call "P" [ P.Aobj "s" ]; P.call "P" [ P.Aobj "s" ] ] ]
      ()
  in
  let v = violated `Deadlock "double P" (C.run Threads_interface.final scen) in
  Alcotest.(check int) "one step before deadlock" 1 (List.length v.trace)

let test_allow_deadlock () =
  let scen =
    P.make ~name:"double P allowed"
      ~objects:[ ("s", Sort.Semaphore) ]
      ~programs:[ [ P.call "P" [ P.Aobj "s" ]; P.call "P" [ P.Aobj "s" ] ] ]
      ~allow_deadlock:true ()
  in
  no_violation "allowed deadlock" (C.run Threads_interface.final scen)

let test_requires_detected () =
  (* Release without holding: REQUIRES m = SELF is false. *)
  let scen =
    P.make ~name:"bare release"
      ~objects:[ ("m", Sort.Thread) ]
      ~programs:[ [ P.call "Release" [ P.Aobj "m" ] ] ]
      ()
  in
  ignore (violated `Requires "bare release" (C.run Threads_interface.final scen))

let test_incident_1 () =
  let scen = S.alert_wait_mutual_exclusion () in
  no_violation "final" (C.run Threads_interface.final scen);
  let v =
    violated `Invariant "missing guard"
      (C.run Threads_interface.missing_mutex_guard scen)
  in
  (* the counterexample must end with the alerted thread raising *)
  match List.rev v.trace with
  | last :: _ ->
    Alcotest.(check string) "last step is AlertResume" "AlertResume"
      last.C.action;
    Alcotest.(check bool) "which raises" true
      (last.C.outcome = Proc.Raises "Alerted")
  | [] -> Alcotest.fail "empty counterexample"

let test_incident_3 () =
  let scen = S.nelson () in
  no_violation "final" (C.run Threads_interface.final scen);
  let v =
    violated `Invariant "nelson" (C.run Threads_interface.nelson_bug scen)
  in
  Alcotest.(check bool) "short counterexample" true (List.length v.trace <= 6)

let test_signal_nondeterminism_explored () =
  (* With one waiter and one signaller, the checker must consider the
     signal-wakes-nobody outcome: the scenario can deadlock, which we allow
     and verify occurs by NOT allowing it and expecting the deadlock. *)
  let scen_strict =
    P.make ~name:"signal may do nothing"
      ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
      ~programs:
        [
          [
            P.call "Acquire" [ P.Aobj "m" ];
            P.call "Wait" [ P.Aobj "m"; P.Aobj "c" ];
            P.call "Release" [ P.Aobj "m" ];
          ];
          [ P.call "Signal" [ P.Aobj "c" ] ];
        ]
      ()
  in
  ignore
    (violated `Deadlock "weak signal"
       (C.run Threads_interface.final scen_strict))

let test_max_states_guard () =
  Alcotest.(check bool) "bound enforced" true
    (try
       ignore (C.run ~max_states:2 Threads_interface.final (S.mutex_contention 3));
       false
     with Failure _ -> true)

(* Exact exploration counts: E9a's eight scenarios under the final spec
   (the table `repro run E9` prints) and the two runs perfbench's
   [threads_model.checker_states_per_s] divides by its time. *)
let counts r = (r.C.states, r.C.transitions)

let test_e9a_pins () =
  let pin name expected scen =
    let r = C.run Threads_interface.final scen in
    no_violation name r;
    Alcotest.(check (pair int int)) name expected (counts r)
  in
  List.iter2
    (fun n e -> pin (Printf.sprintf "mutex x%d" n) e (S.mutex_contention n))
    [ 2; 3; 4; 5 ]
    [ (8, 8); (20, 24); (48, 64); (112, 160) ];
  List.iter2
    (fun n e -> pin (Printf.sprintf "wait/broadcast x%d" n) e (S.wait_signal n))
    [ 1; 2; 3 ]
    [ (14, 15); (52, 64); (208, 276) ];
  pin "P/V ping-pong" (8, 8) (S.semaphore_pingpong ())

let test_perfbench_model_pins () =
  let r = C.run Threads_interface.final (S.wait_signal 4) in
  no_violation "wait/broadcast x4" r;
  Alcotest.(check (pair int int)) "wait/broadcast x4" (880, 1232) (counts r);
  let r = C.run Threads_interface.nelson_bug (S.nelson ()) in
  let v = violated `Invariant "nelson" r in
  Alcotest.(check (pair int int)) "nelson" (4, 5) (counts r);
  Alcotest.(check int) "nelson counterexample length" 4 (List.length v.trace)

let suite =
  ( "checker",
    [
      Alcotest.test_case "mutex scenarios conform" `Quick test_mutex_ok;
      Alcotest.test_case "state counts grow" `Quick test_state_counts_grow;
      Alcotest.test_case "wait/broadcast conforms" `Quick
        test_wait_broadcast_ok;
      Alcotest.test_case "P/V conforms" `Quick test_pv_ok;
      Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
      Alcotest.test_case "deadlock allowance" `Quick test_allow_deadlock;
      Alcotest.test_case "REQUIRES detected" `Quick test_requires_detected;
      Alcotest.test_case "incident 1 (missing guard)" `Quick test_incident_1;
      Alcotest.test_case "incident 3 (nelson)" `Quick test_incident_3;
      Alcotest.test_case "signal non-determinism explored" `Quick
        test_signal_nondeterminism_explored;
      Alcotest.test_case "state bound guard" `Quick test_max_states_guard;
      Alcotest.test_case "E9a exploration counts" `Quick test_e9a_pins;
      Alcotest.test_case "perfbench model-run counts" `Quick
        test_perfbench_model_pins;
    ] )
