(* The cycle-accurate timed driver: slicing, preemption, limits,
   utilization — the Nub's scheduling facilities the paper mentions but
   deliberately leaves out of the specification ("our specification is
   independent of these facilities"). *)

module M = Firefly.Machine
module Ops = Firefly.Machine.Ops

let test_time_slicing () =
  (* Two cpu hogs on one processor, each 10 slices long: slicing
     interleaves them (context switches well above the 2 needed without
     slicing). *)
  let report =
    Firefly.Timed.run ~processors:1 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let hog () =
                 for _ = 1 to 50 do
                   Ops.tick 2_000
                 done
               in
               let a = Ops.spawn hog in
               let b = Ops.spawn hog in
               Ops.join a;
               Ops.join b)))
  in
  Alcotest.(check bool) "sliced" true
    (report.Firefly.Timed.context_switches > 5)

let test_cycle_limit () =
  let report =
    Firefly.Timed.run ~processors:1 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               while true do
                 Ops.tick 100
               done)))
  in
  (match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Step_limit -> ()
  | _ -> Alcotest.fail "expected Step_limit");
  Alcotest.(check int) "stopped at the step bound" 1_000_000
    report.Firefly.Timed.steps

let test_deadlock_timed () =
  let report =
    Firefly.Timed.run ~processors:2 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               Ops.deschedule_and_clear a)))
  in
  match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected Deadlock [t0]"

let test_utilization_bounds () =
  let report =
    Firefly.Timed.run ~processors:4 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let ts = List.init 4 (fun _ -> Ops.spawn (fun () -> Ops.tick 1000)) in
               List.iter Ops.join ts)))
  in
  let u = Firefly.Timed.utilization report ~processors:4 in
  Alcotest.(check bool) "0 < utilization <= 1" true (u > 0.0 && u <= 1.0)

let test_interrupt_preempts_timed () =
  (* An interrupt-context thread is scheduled ahead of a cpu hog. *)
  let fired_at = ref max_int in
  let report =
    Firefly.Timed.run ~processors:1 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let total = 100_000 in
               ignore
                 (M.spawn_root machine ~interrupt:true (fun () ->
                      fired_at := 0));
               for _ = 1 to total / 100 do
                 Ops.tick 100
               done)))
  in
  (match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check bool) "interrupt ran" true (!fired_at = 0)

let test_timed_threads_package () =
  (* The full package running under the timed driver: conformance is
     schedule-independent. *)
  let sink = Spec_trace.Sink.create () in
  let report =
    Firefly.Timed.run ~processors:3 ~seed:5 @@ fun machine ->
    Firefly.Record.trace sink machine;
    Taos_threads.Api.build (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = S.mutex () in
        let c = S.condition () in
        let buf = ref 0 in
        let consumer () =
          for _ = 1 to 20 do
            S.with_lock m (fun () ->
                while !buf = 0 do
                  S.wait m c
                done;
                decr buf)
          done
        in
        let producer () =
          for _ = 1 to 40 do
            S.with_lock m (fun () ->
                incr buf;
                S.signal c)
          done
        in
        let c1 = S.fork consumer in
        let c2 = S.fork consumer in
        let p = S.fork producer in
        S.join p;
        S.join c1;
        S.join c2)
      machine
  in
  (match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "timed package run incomplete");
  let rep =
    Threads_model.Conformance.check Spec_core.Threads_interface.final
      (Spec_trace.Sink.events sink)
  in
  Alcotest.(check bool) "conforms under timed driver" true
    (Threads_model.Conformance.ok rep)

(* The timeout, the abort path of TimedWait and TimedP, is reachable
   under the timed driver as under the interleaving one: a deadline is on
   the machine clock and every cost model fires it by the same rule. *)
let timed_out_under_timed wait () =
  let outcome = ref "not run" in
  let report =
    Taos_threads.Api.run_timed ~processors:2 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        outcome :=
          match wait (module S : Taos_threads.Sync_intf.SYNC
                        with type thread = Threads_util.Tid.t) with
          | () -> "returned"
          | exception Taos_threads.Sync_intf.Timed_out -> "timed out")
  in
  (match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "timed run did not complete");
  Alcotest.(check string) "raised Timed_out" "timed out" !outcome

let timed_wait_nobody_signals (module S : Taos_threads.Sync_intf.SYNC
                                 with type thread = Threads_util.Tid.t) =
  let m = S.mutex () in
  let c = S.condition () in
  S.with_lock m (fun () -> S.timed_wait m c ~timeout:1000)

let timed_p_zero_semaphore (module S : Taos_threads.Sync_intf.SYNC
                              with type thread = Threads_util.Tid.t) =
  let s = S.semaphore () in
  S.p s;
  S.timed_p s ~timeout:1000

let suite =
  ( "timed",
    [
      Alcotest.test_case "time slicing" `Quick test_time_slicing;
      Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
      Alcotest.test_case "deadlock detection" `Quick test_deadlock_timed;
      Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
      Alcotest.test_case "interrupt preempts" `Quick
        test_interrupt_preempts_timed;
      Alcotest.test_case "threads package under timed driver" `Quick
        test_timed_threads_package;
      Alcotest.test_case "timed_wait times out" `Quick
        (timed_out_under_timed timed_wait_nobody_signals);
      Alcotest.test_case "timed_p times out" `Quick
        (timed_out_under_timed timed_p_zero_semaphore);
    ] )

let test_timed_determinism () =
  let run () =
    let sink = Spec_trace.Sink.create () in
    let report =
      Firefly.Timed.run ~processors:3 ~seed:11 @@ fun machine ->
    Firefly.Record.trace sink machine;
    Taos_threads.Api.build (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC
               with type thread = Threads_util.Tid.t)
          in
          let m = S.mutex () in
          let worker () =
            for _ = 1 to 30 do
              S.acquire m;
              Ops.tick 7;
              S.release m
            done
          in
          let ts = List.init 4 (fun _ -> S.fork worker) in
          List.iter S.join ts)
        machine
    in
    ( report.Firefly.Timed.sim_cycles,
      report.Firefly.Timed.context_switches,
      report.Firefly.Timed.steps,
      List.length (Spec_trace.Sink.events sink) )
  in
  Alcotest.(check bool) "same seed, identical timed run" true (run () = run ())

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "timed determinism" `Quick test_timed_determinism ]
  )
