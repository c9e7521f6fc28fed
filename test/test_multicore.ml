(* Tests of the real-parallelism backend (OCaml 5 domains).  Thread counts
   stay small; each test is a genuine cross-domain stress. *)

module S = Threads_multicore.Multicore.Sync

let test_mutex_stress () =
  let m = S.mutex () in
  let counter = ref 0 in
  let n = 4 and iters = 20_000 in
  let worker () =
    for _ = 1 to iters do
      S.with_lock m (fun () -> incr counter)
    done
  in
  let ts = List.init n (fun _ -> S.fork worker) in
  List.iter S.join ts;
  Alcotest.(check int) "no lost updates" (n * iters) !counter

let test_semaphore_mutual_exclusion () =
  let sem = S.semaphore () in
  let inside = ref 0 and bad = ref false in
  let worker () =
    for _ = 1 to 5_000 do
      S.p sem;
      incr inside;
      if !inside > 1 then bad := true;
      decr inside;
      S.v sem
    done
  in
  let ts = List.init 3 (fun _ -> S.fork worker) in
  List.iter S.join ts;
  Alcotest.(check bool) "binary semaphore excludes" false !bad

let test_producer_consumer () =
  let m = S.mutex () in
  let nonempty = S.condition () in
  let nonfull = S.condition () in
  let buf = Queue.create () in
  let cap = 4 and total = 30_000 in
  let eaten = ref 0 in
  let producer () =
    for i = 1 to total do
      S.with_lock m (fun () ->
          while Queue.length buf >= cap do
            S.wait m nonfull
          done;
          Queue.add i buf;
          S.signal nonempty)
    done
  in
  let consumer () =
    for _ = 1 to total do
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
  Alcotest.(check int) "all consumed" total !eaten

let test_broadcast () =
  let m = S.mutex () in
  let go = S.condition () in
  let flag = ref false in
  let woken = Atomic.make 0 in
  let waiter () =
    S.with_lock m (fun () ->
        while not !flag do
          S.wait m go
        done);
    Atomic.incr woken
  in
  let ws = List.init 4 (fun _ -> S.fork waiter) in
  S.with_lock m (fun () -> flag := true);
  S.broadcast go;
  List.iter S.join ws;
  Alcotest.(check int) "all woken" 4 (Atomic.get woken)

let test_alert_wait () =
  let m = S.mutex () in
  let c = S.condition () in
  let alerted = Atomic.make false in
  let w =
    S.fork (fun () ->
        try S.with_lock m (fun () -> S.alert_wait m c)
        with Threads_multicore.Multicore.Alerted -> Atomic.set alerted true)
  in
  S.alert w;
  S.join w;
  Alcotest.(check bool) "alert unblocks AlertWait" true (Atomic.get alerted)

let test_alert_p () =
  let sem = S.semaphore () in
  S.p sem;
  let alerted = Atomic.make false in
  let w =
    S.fork (fun () ->
        try S.alert_p sem
        with Threads_multicore.Multicore.Alerted -> Atomic.set alerted true)
  in
  S.alert w;
  S.join w;
  Alcotest.(check bool) "alert unblocks AlertP" true (Atomic.get alerted)

let test_test_alert () =
  let probe = Atomic.make (false, false, false) in
  let w =
    S.fork (fun () ->
        (* wait until the alert has certainly been posted *)
        let rec spin () = if not (S.test_alert ()) then spin () in
        spin ();
        (* consumed: a second poll is false *)
        Atomic.set probe (true, S.test_alert (), false))
  in
  S.alert w;
  S.join w;
  let seen, second, _ = Atomic.get probe in
  Alcotest.(check bool) "alert seen" true seen;
  Alcotest.(check bool) "alert consumed" false second

let test_signal_wakes_enough () =
  (* one signal per item: no waiter may be left behind *)
  let m = S.mutex () in
  let c = S.condition () in
  let tickets = ref 0 in
  let waiter () =
    S.with_lock m (fun () ->
        while !tickets = 0 do
          S.wait m c
        done;
        decr tickets)
  in
  let ws = List.init 3 (fun _ -> S.fork waiter) in
  for _ = 1 to 3 do
    S.with_lock m (fun () ->
        incr tickets;
        S.signal c)
  done;
  (* signals may have raced ahead of the waits; broadcast as a sweep *)
  let rec drain () =
    let left = S.with_lock m (fun () -> !tickets) in
    if left > 0 then begin
      S.broadcast c;
      drain ()
    end
  in
  drain ();
  List.iter S.join ws;
  Alcotest.(check int) "all tickets taken" 0 !tickets

(* Every workload multicore supports, run untraced (no sink), gives the
   observable of its traced run: the fast paths that skip the nub and the
   event closures compute the same result. *)
let test_untraced_workloads () =
  let module MC = Threads_multicore.Multicore in
  let module B = Threads_backend.Backend in
  let mc = Option.get (B.find "multicore") in
  List.iter
    (fun (wl : Threads_backend.Workload.t) ->
      if B.supports mc wl then begin
        let traced = (mc.B.run ~seed:0 wl).B.observable in
        let untraced =
          MC.run (fun () -> wl.body (module MC.Sync : Taos_threads.Sync_intf.SYNC))
        in
        Alcotest.(check (option string)) wl.name traced (Some untraced)
      end)
    Threads_backend.Workload.all

(* An untraced, uncontended operation allocates nothing.  Each loop runs
   100 000 times; the only words allowed are the boxed floats that the
   two [Gc.minor_words] readings return. *)
let test_untraced_allocation () =
  let n = 100_000 in
  let words name body =
    Threads_multicore.Multicore.run (fun () ->
        body ();
        let w0 = Gc.minor_words () in
        body ();
        let w = Gc.minor_words () -. w0 in
        if w > 8. then Alcotest.failf "%s: %.0f minor words in %d iterations" name w n)
  in
  let m = S.mutex () and s = S.semaphore () and c = S.condition () in
  let nothing () = () in
  words "Acquire/Release" (fun () ->
      for _ = 1 to n do
        S.acquire m;
        S.release m
      done);
  words "with_lock" (fun () ->
      for _ = 1 to n do
        S.with_lock m nothing
      done);
  words "P/V" (fun () ->
      for _ = 1 to n do
        S.p s;
        S.v s
      done);
  words "AlertP/V" (fun () ->
      for _ = 1 to n do
        S.alert_p s;
        S.v s
      done);
  words "Signal/Broadcast, no waiter" (fun () ->
      for _ = 1 to n do
        S.signal c;
        S.broadcast c
      done)

(* [with_lock] releases the mutex and re-raises when its body raises. *)
let test_with_lock_exception () =
  let m = S.mutex () in
  (match S.with_lock m (fun () -> failwith "boom") with
  | () -> Alcotest.fail "with_lock swallowed the exception"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg);
  Alcotest.(check bool) "released" true (S.with_lock m (fun () -> true))

let suite =
  ( "multicore",
    [
      Alcotest.test_case "mutex stress" `Slow test_mutex_stress;
      Alcotest.test_case "semaphore exclusion" `Slow
        test_semaphore_mutual_exclusion;
      Alcotest.test_case "producer/consumer" `Slow test_producer_consumer;
      Alcotest.test_case "broadcast" `Quick test_broadcast;
      Alcotest.test_case "alert_wait" `Quick test_alert_wait;
      Alcotest.test_case "alert_p" `Quick test_alert_p;
      Alcotest.test_case "test_alert" `Quick test_test_alert;
      Alcotest.test_case "signal wakes enough" `Quick test_signal_wakes_enough;
      Alcotest.test_case "untraced workloads" `Quick test_untraced_workloads;
      Alcotest.test_case "untraced fast paths allocate nothing" `Quick
        test_untraced_allocation;
      Alcotest.test_case "with_lock releases on exception" `Quick
        test_with_lock_exception;
    ] )
