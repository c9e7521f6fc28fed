(* A behaviour battery run against both simulated backends (Firefly and
   co-routine).  Every scenario also gets conformance-checked against the
   final formal specification — the repository's core soundness property:
   whatever the schedule, every visible atomic action is admitted by some
   case of its clause. *)

module Tid = Threads_util.Tid

type runner = {
  rname : string;
  run :
    seed:int ->
    (Taos_threads.Api.sync -> unit) ->
    Firefly.Interleave.report * Spec_trace.event list;
  conformance : bool;  (* both emit events, so always true today *)
}

let sim_runner =
  {
    rname = "sim";
    run = (fun ~seed body -> Taos_threads.Api.run_traced ~seed body);
    conformance = true;
  }

let uniproc_runner =
  {
    rname = "uniproc";
    run =
      (fun ~seed body ->
        let sink = Spec_trace.Sink.create () in
        let r =
          Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
            (fun machine ->
              Firefly.Record.trace sink machine;
              ignore
                (Firefly.Machine.spawn_root machine (fun () ->
                     body (Taos_threads.Uniproc.make ()))))
        in
        (r, Spec_trace.Sink.events sink));
    conformance = true;
  }

let check_report ?(allow_deadlock = false) name (r : Firefly.Interleave.report) =
  (match r.verdict with
  | Firefly.Interleave.Completed -> ()
  | Firefly.Interleave.Deadlock ts ->
    if not allow_deadlock then
      Alcotest.fail
        (Printf.sprintf "%s: deadlock of %s" name
           (String.concat "," (List.map Tid.to_string ts)))
  | Firefly.Interleave.Step_limit ->
    Alcotest.fail (name ^ ": step limit")
  | Firefly.Interleave.Livelock _ -> Alcotest.fail (name ^ ": livelock"));
  match Firefly.Machine.failures r.machine with
  | [] -> ()
  | (tid, e) :: _ ->
    Alcotest.fail
      (Printf.sprintf "%s: t%d failed with %s" name tid (Printexc.to_string e))

let check_conformance name trace =
  let rep =
    Threads_model.Conformance.check Spec_core.Threads_interface.final trace
  in
  if not (Threads_model.Conformance.ok rep) then
    Alcotest.fail
      (Format.asprintf "%s: %a" name Threads_model.Conformance.pp_report rep);
  Alcotest.(check (list string))
    (name ^ " requires-clean") []
    (List.map
       (fun (e : Threads_model.Conformance.error) -> e.message)
       rep.requires_violations)

let seeds = 25

let sweep ?allow_deadlock runner name body =
  for seed = 0 to seeds - 1 do
    let r, trace = runner.run ~seed body in
    check_report ?allow_deadlock (Printf.sprintf "%s seed %d" name seed) r;
    if runner.conformance then
      check_conformance (Printf.sprintf "%s seed %d" name seed) trace
  done

let as_sync sync =
  (module (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
  : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)

(* --- scenarios --- *)

let mutual_exclusion runner () =
  sweep runner "mutex" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let inside = ref 0 and peak = ref 0 and total = ref 0 in
      let worker () =
        for _ = 1 to 6 do
          S.with_lock m (fun () ->
              incr inside;
              if !inside > !peak then peak := !inside;
              incr total;
              decr inside)
        done
      in
      let ts = List.init 4 (fun _ -> S.fork worker) in
      List.iter S.join ts;
      if !peak <> 1 then failwith "two threads in the critical section";
      if !total <> 24 then failwith "lost increments")

let with_lock_releases_on_exception runner () =
  sweep runner "with_lock/exn" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      (try S.with_lock m (fun () -> failwith "boom") with Failure _ -> ());
      (* if Release didn't run, this acquire deadlocks *)
      S.with_lock m (fun () -> ()))

let producer_consumer runner () =
  sweep runner "prodcons" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let nonempty = S.condition () in
      let nonfull = S.condition () in
      let buf = Queue.create () in
      let produced = 10 and cap = 2 in
      let eaten = ref 0 in
      let producer () =
        for i = 1 to produced do
          S.with_lock m (fun () ->
              while Queue.length buf >= cap do
                S.wait m nonfull
              done;
              Queue.add i buf;
              S.signal nonempty)
        done
      in
      let consumer () =
        for _ = 1 to produced do
          S.with_lock m (fun () ->
              while Queue.is_empty buf do
                S.wait m nonempty
              done;
              ignore (Queue.take buf);
              incr eaten;
              S.signal nonfull)
        done
      in
      let p = S.fork producer and c = S.fork consumer in
      S.join p;
      S.join c;
      if !eaten <> produced then failwith "items lost")

let broadcast_wakes_all runner () =
  sweep runner "broadcast" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let go = S.condition () in
      let flag = ref false in
      let waiter () =
        S.with_lock m (fun () ->
            while not !flag do
              S.wait m go
            done)
      in
      let ws = List.init 5 (fun _ -> S.fork waiter) in
      S.with_lock m (fun () -> flag := true);
      S.broadcast go;
      (* a second broadcast covers waiters that enqueued after the first *)
      S.broadcast go;
      (* waiters racing past both broadcasts still see flag = true and
         never wait; those parked are freed: *)
      List.iter
        (fun w ->
          (* repeatedly broadcast until joined, bounded by construction *)
          ignore w)
        ws;
      List.iter S.join ws)

let semaphore_pingpong runner () =
  sweep runner "semaphore" (fun sync ->
      let module S = (val as_sync sync) in
      let tokens = S.semaphore () in
      let turns = ref [] in
      let player name rounds =
        for _ = 1 to rounds do
          S.p tokens;
          turns := name :: !turns;
          S.v tokens
        done
      in
      let a = S.fork (fun () -> player "a" 5) in
      let b = S.fork (fun () -> player "b" 5) in
      S.join a;
      S.join b;
      if List.length !turns <> 10 then failwith "wrong number of turns")

let alert_unblocks_wait runner () =
  sweep runner "alert/wait" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let c = S.condition () in
      let alerted = ref false in
      let w =
        S.fork (fun () ->
            try S.with_lock m (fun () -> S.alert_wait m c)
            with Taos_threads.Sync_intf.Alerted -> alerted := true)
      in
      S.alert w;
      S.join w;
      if not !alerted then failwith "alert did not unblock the waiter")

let alert_p_unblocks runner () =
  sweep runner "alert/p" (fun sync ->
      let module S = (val as_sync sync) in
      let sem = S.semaphore () in
      S.p sem;
      (* make it unavailable so AlertP must block *)
      let alerted = ref false in
      let w =
        S.fork (fun () ->
            try S.alert_p sem
            with Taos_threads.Sync_intf.Alerted -> alerted := true)
      in
      S.alert w;
      S.join w;
      if not !alerted then failwith "alert did not unblock AlertP")

let test_alert_polls runner () =
  sweep runner "test_alert" (fun sync ->
      let module S = (val as_sync sync) in
      (* no alert pending: false, and stays false *)
      if S.test_alert () then failwith "phantom alert";
      let me = S.self () in
      S.alert me;
      if not (S.test_alert ()) then failwith "alert not seen";
      if S.test_alert () then failwith "alert not consumed")

let signal_after_alert_still_works runner () =
  (* An alerted waiter must not steal the Signal meant for another waiter
     (the operational consequence of Nelson's bug, which the fixed spec and
     this implementation avoid). *)
  sweep runner "no stolen signal" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let c = S.condition () in
      let flag = ref false in
      let normal_done = ref false in
      let alerted_waiter =
        S.fork (fun () ->
            try S.with_lock m (fun () -> S.alert_wait m c)
            with Taos_threads.Sync_intf.Alerted -> ())
      in
      let normal_waiter =
        S.fork (fun () ->
            S.with_lock m (fun () ->
                while not !flag do
                  S.wait m c
                done;
                normal_done := true))
      in
      S.alert alerted_waiter;
      S.join alerted_waiter;
      (* now only the normal waiter can be in c *)
      S.with_lock m (fun () -> flag := true);
      S.signal c;
      S.join normal_waiter;
      if not !normal_done then failwith "signal was lost")

let cases runner =
  [
    Alcotest.test_case (runner.rname ^ ": mutual exclusion") `Quick
      (mutual_exclusion runner);
    Alcotest.test_case (runner.rname ^ ": with_lock releases on exn") `Quick
      (with_lock_releases_on_exception runner);
    Alcotest.test_case (runner.rname ^ ": producer/consumer") `Quick
      (producer_consumer runner);
    Alcotest.test_case (runner.rname ^ ": broadcast wakes all") `Quick
      (broadcast_wakes_all runner);
    Alcotest.test_case (runner.rname ^ ": semaphore ping-pong") `Quick
      (semaphore_pingpong runner);
    Alcotest.test_case (runner.rname ^ ": alert unblocks AlertWait") `Quick
      (alert_unblocks_wait runner);
    Alcotest.test_case (runner.rname ^ ": alert unblocks AlertP") `Quick
      (alert_p_unblocks runner);
    Alcotest.test_case (runner.rname ^ ": TestAlert consumes") `Quick
      (test_alert_polls runner);
    Alcotest.test_case (runner.rname ^ ": no stolen signal") `Quick
      (signal_after_alert_still_works runner);
  ]

let suite = ("backends", cases sim_runner @ cases uniproc_runner)

(* --- alerting edge cases --- *)

let alert_before_wait runner () =
  (* an alert posted before the AlertWait call: the wait must not sleep
     forever (the implementation departs immediately or at Block) *)
  sweep runner "alert-before-wait" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let c = S.condition () in
      let raised = ref false in
      let w =
        S.fork (fun () ->
            (* wait until pending is certainly set *)
            while not (S.test_alert ()) do
              S.yield ()
            done;
            (* re-alert ourselves: pending again, consumed by AlertWait *)
            S.alert (S.self ());
            try S.with_lock m (fun () -> S.alert_wait m c)
            with Taos_threads.Sync_intf.Alerted -> raised := true)
      in
      S.alert w;
      S.join w;
      if not !raised then failwith "pre-posted alert ignored")

let double_alert_coalesces runner () =
  (* alerts form a SET: two Alerts before consumption are one pending *)
  sweep runner "double-alert" (fun sync ->
      let module S = (val as_sync sync) in
      let me = S.self () in
      S.alert me;
      S.alert me;
      if not (S.test_alert ()) then failwith "lost alert";
      if S.test_alert () then failwith "alerts must coalesce (set semantics)")

let alert_vs_signal_race runner () =
  (* both a Signal and an Alert target the same AlertWaiter: either
     outcome is legal; the run must terminate and conform either way *)
  sweep runner "alert-vs-signal" (fun sync ->
      let module S = (val as_sync sync) in
      let m = S.mutex () in
      let c = S.condition () in
      let flag = ref false in
      let outcome = ref `None in
      let w =
        S.fork (fun () ->
            try
              S.with_lock m (fun () ->
                  while not !flag do
                    S.alert_wait m c
                  done;
                  outcome := `Returned)
            with Taos_threads.Sync_intf.Alerted -> outcome := `Raised)
      in
      let a = S.fork (fun () -> S.alert w) in
      let s =
        S.fork (fun () ->
            S.with_lock m (fun () -> flag := true);
            S.signal c)
      in
      S.join a;
      S.join s;
      S.broadcast c;
      S.join w;
      (match !outcome with
      | `Returned | `Raised -> ()
      | `None -> failwith "waiter finished with no outcome");
      (* consume any leftover pending alert so the next scenario's threads
         start clean (alerts are per-thread, but hygiene) *)
      ignore (S.test_alert ()))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ List.concat_map
        (fun runner ->
          [
            Alcotest.test_case (runner.rname ^ ": alert before wait") `Quick
              (alert_before_wait runner);
            Alcotest.test_case (runner.rname ^ ": double alert coalesces")
              `Quick (double_alert_coalesces runner);
            Alcotest.test_case (runner.rname ^ ": alert vs signal race")
              `Quick (alert_vs_signal_race runner);
          ])
        [ sim_runner; uniproc_runner ] )
