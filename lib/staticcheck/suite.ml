(* The verification suite: nine small closed scenarios that together
   drive every case of every procedure of the Threads interface (the
   driver checks this coverage is complete) and carry the properties the
   abstract engine checks — delivery assertions for the signal-loss /
   wakeup-window analysis, stale-waiter and mutual-exclusion invariants
   with their diagnostic classes. *)

open Spec_core
module Program = Threads_model.Program

let call = Program.call
let obj = fun n -> Program.Aobj n
let thread = fun i -> Program.Athread i

(* One waiter, one signaller.  Benign deadlocks are allowed (the paper's
   Signal may wake nobody), but a delivered-then-stuck path is
   signal-loss and an undeliverable scenario is the wakeup window. *)
let wait_signal =
  Program.make ~name:"wait-signal"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [ call "Acquire" [ obj "m" ]; call "Wait" [ obj "m"; obj "c" ];
          call "Release" [ obj "m" ] ];
        [ call "Acquire" [ obj "m" ]; call "Signal" [ obj "c" ];
          call "Release" [ obj "m" ] ];
      ]
    ~allow_deadlock:true ~assert_delivery:true ()

let wait_broadcast =
  Program.make ~name:"wait-broadcast"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [ call "Acquire" [ obj "m" ]; call "Wait" [ obj "m"; obj "c" ];
          call "Release" [ obj "m" ] ];
        [ call "Acquire" [ obj "m" ]; call "Broadcast" [ obj "c" ];
          call "Release" [ obj "m" ] ];
      ]
    ~allow_deadlock:true ~assert_delivery:true ()

(* Alert races Signal at an alertable waiter; the alert guarantees
   progress, so no deadlock is tolerated, and nobody may linger in [c]
   after leaving the wait (Nelson's bug). *)
let alert_wait =
  Program.make ~name:"alert-wait"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [ call "Acquire" [ obj "m" ];
          call "AlertWait" [ obj "m"; obj "c" ];
          call "Release" [ obj "m" ] ];
        [ call "Alert" [ thread 0 ]; call "Acquire" [ obj "m" ];
          call "Signal" [ obj "c" ]; call "Release" [ obj "m" ] ];
      ]
    ~invariants:[ Program.no_stale_waiters ~c:"c" ~waits:[ (0, 1) ] ]
    ()

(* An alerted waiter resuming while another thread is inside its
   critical section: under the pristine spec AlertResume's [m = NIL]
   guards forbid it; dropping them is mutex theft. *)
let alert_wait_held =
  Program.make ~name:"alert-wait-held"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [ call "Acquire" [ obj "m" ];
          call "AlertWait" [ obj "m"; obj "c" ];
          call "Release" [ obj "m" ] ];
        [ call "Alert" [ thread 0 ]; call "Acquire" [ obj "m" ];
          call "Release" [ obj "m" ] ];
      ]
    ~invariants:[ Program.no_stale_waiters ~c:"c" ~waits:[ (0, 1) ] ]
    ()

(* The timeout path always rescues the waiter, so no deadlock. *)
let timed_wait =
  Program.make ~name:"timed-wait"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [ call "Acquire" [ obj "m" ];
          call "TimedWait" [ obj "m"; obj "c" ];
          call "Release" [ obj "m" ] ];
        [ call "Acquire" [ obj "m" ]; call "Signal" [ obj "c" ];
          call "Release" [ obj "m" ] ];
      ]
    ()

(* Binary-semaphore mutual exclusion: both threads inside their P..V
   region at once breaks exclusion (caught when P's WHEN is dropped). *)
let semaphore =
  Program.make ~name:"semaphore"
    ~objects:[ ("s", Sort.Semaphore) ]
    ~programs:
      [
        [ call "P" [ obj "s" ]; call "V" [ obj "s" ] ];
        [ call "P" [ obj "s" ]; call "V" [ obj "s" ] ];
      ]
    ~invariants:
      [ Program.mutual_exclusion ~regions:[ (0, 0, 1, []); (1, 0, 1, []) ] ]
    ()

let alert_p =
  Program.make ~name:"alert-p"
    ~objects:[ ("s", Sort.Semaphore) ]
    ~programs:
      [
        [ call "AlertP" [ obj "s" ] ];
        [ call "Alert" [ thread 0 ] ];
      ]
    ()

let test_alert =
  Program.make ~name:"test-alert"
    ~objects:[ ("s", Sort.Semaphore) ]
    ~programs:
      [ [ call "TestAlert" [] ]; [ call "Alert" [ thread 0 ] ] ]
    ()

(* TimedP never delays (its timeout case is unguarded). *)
let timed_p =
  Program.make ~name:"timed-p"
    ~objects:[ ("s", Sort.Semaphore) ]
    ~programs:[ [ call "TimedP" [ obj "s" ] ]; [ call "TimedP" [ obj "s" ] ] ]
    ()

let all =
  [
    wait_signal; wait_broadcast; alert_wait; alert_wait_held; timed_wait;
    semaphore; alert_p; test_alert; timed_p;
  ]

(* Does the interface provide every procedure a scenario calls, with the
   arity the scenario assumes?  Lets check-spec run on partial or foreign
   spec files: inapplicable scenarios are skipped, not crashed on. *)
let applicable iface (program : Program.t) =
  Array.for_all
    (fun steps ->
      List.for_all
        (fun (step : Program.step) ->
          match Proc.find_proc iface step.Program.proc with
          | proc ->
            List.length proc.Proc.p_formals = List.length step.Program.args
          | exception Not_found -> false)
        steps)
    program.programs

(* Every (procedure, action, 0-based case) triple of the interface —
   the coverage target the suite's union must meet. *)
let all_cases iface =
  List.concat_map
    (fun (p : Proc.t) ->
      List.concat_map
        (fun (a : Proc.action) ->
          List.mapi (fun ci _ -> (p.Proc.p_name, a.Proc.a_name, ci))
            a.Proc.a_cases)
        (Proc.actions p))
    iface.Proc.i_procs
