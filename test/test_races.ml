(* Race-focused implementation tests: the wakeup-waiting window, bounded
   systematic exploration, baselines, and the fast-path ablation. *)

module Tid = Threads_util.Tid
module Ops = Firefly.Machine.Ops

let conforms trace =
  Threads_model.Conformance.ok
    (Threads_model.Conformance.check Spec_core.Threads_interface.final trace)

(* The window race: sweep seeds until a Signal removes >1 thread, and check
   every such run still conforms.  (Paper: "possible though unlikely".) *)
let test_multi_unblock_exists_and_conforms () =
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 2000 do
    let _, trace =
      Taos_threads.Api.run_traced ~seed:!seed (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
          in
          let m = S.mutex () in
          let c = S.condition () in
          let flag = ref false in
          let waiter () =
            S.with_lock m (fun () ->
                while not !flag do
                  S.wait m c
                done)
          in
          let ws = List.init 3 (fun _ -> S.fork waiter) in
          let s =
            S.fork (fun () ->
                S.with_lock m (fun () -> flag := true);
                S.signal c)
          in
          S.join s;
          S.broadcast c;
          List.iter S.join ws)
    in
    let multi =
      List.exists
        (fun (e : Spec_trace.event) ->
          match e.action with
          | Signal { removed; _ } -> List.length removed > 1
          | _ -> false)
        trace
    in
    if multi then begin
      found := true;
      Alcotest.(check bool) "multi-unblock run conforms" true (conforms trace)
    end;
    incr seed
  done;
  Alcotest.(check bool) "the race window is reachable" true !found

(* Bounded systematic exploration of the real mutex: across every schedule
   with <= 2 preemptions, mutual exclusion holds and no updates are lost. *)
let test_mutex_systematic () =
  let peak = ref 0 and total = ref 0 in
  let build machine =
    ignore
      (Firefly.Machine.spawn_root machine (fun () ->
           peak := 0;
           total := 0;
           let pkg = Taos_threads.Pkg.create () in
           let m = Taos_threads.Mutex.create pkg in
           let inside = ref 0 in
           let worker () =
             for _ = 1 to 2 do
               Taos_threads.Mutex.with_lock m (fun () ->
                   incr inside;
                   if !inside > !peak then peak := !inside;
                   incr total;
                   decr inside)
             done
           in
           let a = Ops.spawn worker in
           let b = Ops.spawn worker in
           Ops.join a;
           Ops.join b))
  in
  let found, stats =
    Firefly.Explore.explore ~max_preemptions:2 ~stop_at_first:true
      ~max_depth:2000 ~max_runs:30_000 ~build (fun outcome ->
        match outcome.Firefly.Explore.verdict with
        | Firefly.Interleave.Completed ->
          if !peak > 1 then Some "mutual exclusion violated"
          else if !total <> 4 then Some "lost update"
          else None
        | Firefly.Interleave.Deadlock _ -> Some "deadlock"
        | Firefly.Interleave.Step_limit | Firefly.Interleave.Livelock _ -> None)
  in
  Alcotest.(check (list string)) "no violation in bounded space" [] found;
  Alcotest.(check bool) "bounded space exhausted" true
    stats.Firefly.Explore.complete;
  Alcotest.(check bool) "nontrivial exploration" true
    (stats.Firefly.Explore.executions - stats.Firefly.Explore.dpor_truncated
    > 50)

(* Same bounded exploration for Wait/Signal: no lost wakeups. *)
let test_condvar_systematic () =
  (* each replay subscribes a fresh collector; its check reads it *)
  let sink = ref (Spec_trace.Sink.create ()) in
  let build machine =
    sink := Spec_trace.Sink.create ();
    Firefly.Record.trace !sink machine;
    ignore
      (Firefly.Machine.spawn_root machine (fun () ->
           let pkg = Taos_threads.Pkg.create () in
           let m = Taos_threads.Mutex.create pkg in
           let c = Taos_threads.Condition.create pkg in
           let flag = ref false in
           let w =
             Ops.spawn (fun () ->
                 Taos_threads.Mutex.with_lock m (fun () ->
                     while not !flag do
                       Taos_threads.Condition.wait c m
                     done))
           in
           Taos_threads.Mutex.with_lock m (fun () -> flag := true);
           Taos_threads.Condition.signal c;
           Ops.join w))
  in
  let found, stats =
    Firefly.Explore.explore ~max_preemptions:2 ~stop_at_first:true
      ~max_depth:3000 ~max_runs:30_000 ~build (fun outcome ->
        match outcome.Firefly.Explore.verdict with
        | Firefly.Interleave.Completed ->
          if conforms (Spec_trace.Sink.events !sink) then None
          else Some "non-conforming trace"
        | Firefly.Interleave.Deadlock _ -> Some "lost wakeup"
        | Firefly.Interleave.Step_limit | Firefly.Interleave.Livelock _ -> None)
  in
  Alcotest.(check (list string)) "no lost wakeup, all traces conform" []
    found;
  Alcotest.(check bool) "bounded space exhausted" true
    stats.Firefly.Explore.complete

(* The naive semaphore-based condvar must strand a waiter somewhere in the
   bounded space (the paper's impossibility argument). *)
let test_naive_strands_systematically () =
  let build machine =
    ignore
      (Firefly.Machine.spawn_root machine (fun () ->
           let sync = Taos_threads.Uniproc.make () in
           let module S =
             (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
           in
           let m = S.mutex () in
           let sem = S.semaphore () in
           S.p sem;
           let nwaiters = ref 0 in
           let flag = ref false in
           let waiter () =
             S.with_lock m (fun () ->
                 while not !flag do
                   incr nwaiters;
                   S.release m;
                   S.p sem;
                   decr nwaiters;
                   S.acquire m
                 done)
           in
           let w1 = S.fork waiter in
           let w2 = S.fork waiter in
           S.with_lock m (fun () -> flag := true);
           for _ = 1 to !nwaiters do
             S.v sem
           done;
           S.join w1;
           S.join w2))
  in
  let found, _ =
    Firefly.Explore.explore ~max_preemptions:2 ~stop_at_first:true
      ~max_depth:800 ~max_runs:50_000 ~build (fun outcome ->
        match outcome.Firefly.Explore.verdict with
        | Firefly.Interleave.Deadlock _ -> Some "stranded"
        | Firefly.Interleave.Completed | Firefly.Interleave.Step_limit
        | Firefly.Interleave.Livelock _ ->
          None)
  in
  Alcotest.(check (list string)) "naive broadcast strands" [ "stranded" ]
    found

(* Hoare monitors: the predicate really is guaranteed on return. *)
let test_hoare_guarantee () =
  for seed = 0 to 30 do
    let violated = ref false in
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
        (fun machine ->
          ignore
            (Firefly.Machine.spawn_root machine (fun () ->
                 let mon = Taos_threads.Hoare.monitor () in
                 let nonzero = Taos_threads.Hoare.condition mon in
                 let counter = ref 0 in
                 let consumer () =
                   for _ = 1 to 5 do
                     Taos_threads.Hoare.with_monitor mon (fun () ->
                         if !counter = 0 then Taos_threads.Hoare.wait nonzero;
                         if !counter = 0 then violated := true
                         else decr counter)
                   done
                 in
                 let producer () =
                   for _ = 1 to 5 do
                     Taos_threads.Hoare.with_monitor mon (fun () ->
                         incr counter;
                         Taos_threads.Hoare.signal nonzero)
                   done
                 in
                 let c = Ops.spawn consumer in
                 let p = Ops.spawn producer in
                 Ops.join c;
                 Ops.join p)))
    in
    (match r.Firefly.Interleave.verdict with
    | Firefly.Interleave.Completed -> ()
    | _ -> Alcotest.fail (Printf.sprintf "hoare run stuck (seed %d)" seed));
    Alcotest.(check bool)
      (Printf.sprintf "predicate held on return (seed %d)" seed)
      false !violated
  done

(* Ablation: with the fast path off the behaviour (and conformance) is
   unchanged, only the cost moves. *)
let test_no_fast_path_conforms () =
  for seed = 0 to 20 do
    let sink = Spec_trace.Sink.create () in
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
      @@ fun machine ->
      Firefly.Record.trace sink machine;
      Taos_threads.Api.build ~fast_path:false
        (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
          in
          let m = S.mutex () in
          let c = S.condition () in
          let flag = ref false in
          let w =
            S.fork (fun () ->
                S.with_lock m (fun () ->
                    while not !flag do
                      S.wait m c
                    done))
          in
          S.with_lock m (fun () -> flag := true);
          S.signal c;
          S.broadcast c;
          S.join w)
        machine
    in
    (match r.Firefly.Interleave.verdict with
    | Firefly.Interleave.Completed -> ()
    | _ -> Alcotest.fail "no-fast-path run stuck");
    Alcotest.(check bool)
      (Printf.sprintf "conforms (seed %d)" seed)
      true
      (conforms (Spec_trace.Sink.events sink))
  done

(* Interrupt-context V: never lost across seeds. *)
let test_interrupt_v_not_lost () =
  for seed = 0 to 100 do
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
        (fun machine ->
          ignore
            (Firefly.Machine.spawn_root machine (fun () ->
                 let pkg = Taos_threads.Pkg.create () in
                 let sem = Taos_threads.Mutex.semaphore pkg in
                 Taos_threads.Mutex.p sem;
                 let d =
                   Ops.spawn (fun () -> Taos_threads.Mutex.p sem)
                 in
                 ignore
                   (Firefly.Machine.spawn_root machine ~interrupt:true
                      (fun () -> Taos_threads.Mutex.v sem));
                 Ops.join d)))
    in
    match r.Firefly.Interleave.verdict with
    | Firefly.Interleave.Completed -> ()
    | _ -> Alcotest.fail (Printf.sprintf "lost interrupt V (seed %d)" seed)
  done

let suite =
  ( "races",
    [
      Alcotest.test_case "signal multi-unblock reachable + conformant" `Slow
        test_multi_unblock_exists_and_conforms;
      Alcotest.test_case "mutex: bounded systematic exploration" `Slow
        test_mutex_systematic;
      Alcotest.test_case "condvar: no lost wakeups (systematic)" `Slow
        test_condvar_systematic;
      Alcotest.test_case "naive condvar strands (systematic)" `Slow
        test_naive_strands_systematically;
      Alcotest.test_case "hoare guarantee" `Quick test_hoare_guarantee;
      Alcotest.test_case "no-fast-path conforms" `Quick
        test_no_fast_path_conforms;
      Alcotest.test_case "interrupt V not lost" `Quick
        test_interrupt_v_not_lost;
    ] )

(* Internal invariant: a condition's interest count returns to zero once
   all waiters have left (the fast-path skip is exact at quiescence). *)
let test_interest_quiescence () =
  for seed = 0 to 20 do
    let interest_left = ref (-1) in
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
        (fun machine ->
          ignore
            (Firefly.Machine.spawn_root machine (fun () ->
                 let pkg = Taos_threads.Pkg.create () in
                 let m = Taos_threads.Mutex.create pkg in
                 let c = Taos_threads.Condition.create pkg in
                 let flag = ref false in
                 let waiter () =
                   Taos_threads.Mutex.with_lock m (fun () ->
                       while not !flag do
                         Taos_threads.Condition.wait c m
                       done)
                 in
                 let ws = List.init 3 (fun _ -> Ops.spawn waiter) in
                 Taos_threads.Mutex.with_lock m (fun () -> flag := true);
                 Taos_threads.Condition.broadcast c;
                 List.iter Ops.join ws;
                 interest_left := Ops.read (Taos_threads.Condition.id c))))
    in
    (match r.Firefly.Interleave.verdict with
    | Firefly.Interleave.Completed -> ()
    | _ -> Alcotest.fail "stuck");
    Alcotest.(check int)
      (Printf.sprintf "interest back to 0 (seed %d)" seed)
      0 !interest_left
  done

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "interest quiescence" `Quick
          test_interest_quiescence ] )
