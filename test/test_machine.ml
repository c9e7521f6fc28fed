(* Tests for the simulator core: memory effects, scheduling, blocking,
   accounting, interrupts, and atomic emit. *)

module M = Firefly.Machine
module Ops = Firefly.Machine.Ops

let run_rr ?(max_steps = 100_000) build =
  Firefly.Interleave.run ~max_steps ~strategy:(Firefly.Sched.round_robin ())
    build

let completed (r : Firefly.Interleave.report) =
  match r.verdict with
  | Firefly.Interleave.Completed -> true
  | Firefly.Interleave.Deadlock _ | Firefly.Interleave.Step_limit
  | Firefly.Interleave.Livelock _ ->
    false

let no_failures (r : Firefly.Interleave.report) =
  M.failures r.machine = []

let test_memory_ops () =
  let out = ref (-1) in
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 2 in
               Ops.write a 5;
               Ops.write (a + 1) 7;
               let x = Ops.read a + Ops.read (a + 1) in
               let old = Ops.faa a 10 in
               assert (old = 5);
               assert (Ops.read a = 15);
               assert (not (Ops.tas (a + 1) = false) || Ops.read (a + 1) = 1);
               out := x)))
  in
  Alcotest.(check bool) "completed" true (completed r && no_failures r);
  Alcotest.(check int) "arith" 12 !out

let test_tas_semantics () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               assert (Ops.tas a = false);
               (* was 0: acquired *)
               assert (Ops.tas a = true);
               (* was 1: busy *)
               Ops.clear a;
               assert (Ops.tas a = false))))
  in
  Alcotest.(check bool) "tas" true (completed r && no_failures r)

let test_spawn_join () =
  let order = ref [] in
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let child =
                 Ops.spawn (fun () -> order := "child" :: !order)
               in
               Ops.join child;
               order := "parent" :: !order)))
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "join ordering" [ "parent"; "child" ] !order

let test_join_finished () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let child = Ops.spawn (fun () -> ()) in
               (* spin until the child has finished, then join: must not
                  block forever *)
               for _ = 1 to 50 do
                 Ops.yield ()
               done;
               Ops.join child)))
  in
  Alcotest.(check bool) "join after finish" true (completed r)

let test_deschedule_ready () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               Ops.write a 1;
               let sleeper =
                 Ops.spawn (fun () -> Ops.deschedule_and_clear a)
               in
               (* wait for the sleeper to go down (it clears a) *)
               while Ops.read a <> 0 do
                 Ops.yield ()
               done;
               Ops.ready sleeper;
               Ops.join sleeper)))
  in
  Alcotest.(check bool) "deschedule/ready" true (completed r && no_failures r)

let test_wakeup_pending () =
  (* ready() delivered before the deschedule executes must not be lost *)
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               let self = Ops.self () in
               (* wake ourselves first: the later deschedule is a no-op *)
               Ops.ready self;
               Ops.deschedule_and_clear a)))
  in
  Alcotest.(check bool) "wakeup-waiting switch" true
    (completed r && no_failures r)

let test_deadlock_detection () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               Ops.deschedule_and_clear a)))
  in
  (match r.Firefly.Interleave.verdict with
  | Firefly.Interleave.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected Deadlock [t0]")

let test_interrupt_cannot_block () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine ~interrupt:true (fun () ->
               let a = Ops.alloc 1 in
               Ops.deschedule_and_clear a)))
  in
  (match M.failures r.Firefly.Interleave.machine with
  | [ (0, M.Interrupt_blocked ctx) ] ->
    Alcotest.(check bool) "context names the blocking op" true
      (String.length ctx > 0)
  | _ -> Alcotest.fail "expected Interrupt_blocked failure")

let test_counters_and_instr () =
  let foo = M.counter_id "foo" in
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let a = Ops.alloc 1 in
               Ops.incr_counter foo;
               Ops.incr_counter foo;
               Ops.write a 1;
               Ops.tick 100)))
  in
  let m = r.Firefly.Interleave.machine in
  Alcotest.(check int) "counter" 2 (M.counter m "foo");
  Alcotest.(check int) "missing counter" 0 (M.counter m "bar");
  Alcotest.(check int) "instructions (write + tick)" 2 (M.total_instructions m);
  Alcotest.(check int) "cycles (1 + 100)" 101 (M.total_cycles m)

let test_mem_emit_atomicity () =
  (* Two threads each do mem_emit(tas); exactly one event must be emitted,
     by the winner, regardless of schedule. *)
  for seed = 0 to 50 do
    let sink = Spec_trace.Sink.create () in
    let _ =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
        (fun machine ->
          Firefly.Record.trace sink machine;
          ignore
            (M.spawn_root machine (fun () ->
                 let a = Ops.alloc 1 in
                 let contender () =
                   (* capture self outside the thunk: thunks run inside the
                      machine step and must not perform effects *)
                   let self = Ops.self () in
                   ignore
                     (Ops.mem_emit (M.M_tas a) (fun old ->
                          if old = 0 then
                            M.Probe.emit { self; action = Acquire { m = a } }))
                 in
                 let t1 = Ops.spawn contender in
                 let t2 = Ops.spawn contender in
                 Ops.join t1;
                 Ops.join t2)))
    in
    let events = Spec_trace.Sink.events sink in
    Alcotest.(check int)
      (Printf.sprintf "one winner (seed %d)" seed)
      1 (List.length events)
  done

let test_determinism () =
  let run seed =
    let sink = Spec_trace.Sink.create () in
    let _ =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
        (fun machine ->
          Firefly.Record.trace sink machine;
          ignore
            (M.spawn_root machine (fun () ->
                 let a = Ops.alloc 1 in
                 let worker () =
                   for _ = 1 to 10 do
                     ignore (Ops.faa a 1)
                   done;
                   let self = Ops.self () in
                   M.Probe.emit { self; action = TestAlert { result = false } }
                 in
                 let ts = List.init 3 (fun _ -> Ops.spawn worker) in
                 List.iter Ops.join ts)))
    in
    List.map
      (fun (e : Spec_trace.event) -> e.self)
      (Spec_trace.Sink.events sink)
  in
  Alcotest.(check (list int)) "same seed, same trace" (run 9) (run 9);
  Alcotest.(check bool) "steps reproducible" true (run 3 = run 3)

let test_timed_driver () =
  let report =
    Firefly.Timed.run ~processors:2 (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let worker () = Ops.tick 1000 in
               let a = Ops.spawn worker in
               let b = Ops.spawn worker in
               Ops.join a;
               Ops.join b)))
  in
  (match report.Firefly.Timed.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "timed run incomplete");
  (* two 1000-cycle jobs on two processors should overlap: elapsed well
     under the serial 2000 plus overheads *)
  Alcotest.(check bool) "parallel speedup" true
    (report.Firefly.Timed.sim_cycles < 1900);
  Alcotest.(check bool) "busy cycles counted" true
    (report.Firefly.Timed.busy_cycles >= 2000)

let test_explore_finds_race () =
  (* Classic lost-update: two threads do read;write with no lock.  The
     explorer must find a schedule where the final value is 1, not 2. *)
  let final = ref 0 in
  let build machine =
    ignore
      (M.spawn_root machine (fun () ->
           let a = Ops.alloc 1 in
           let incr () =
             let v = Ops.read a in
             Ops.write a (v + 1)
           in
           let t1 = Ops.spawn incr in
           let t2 = Ops.spawn incr in
           Ops.join t1;
           Ops.join t2;
           final := Ops.read a))
  in
  let found, stats =
    Firefly.Explore.explore ~stop_at_first:true ~max_depth:200 ~build
      (fun outcome ->
        match outcome.Firefly.Explore.verdict with
        | Firefly.Interleave.Completed when !final = 1 -> Some "lost update"
        | _ -> None)
  in
  Alcotest.(check (list string)) "race found" [ "lost update" ] found;
  Alcotest.(check bool) "explored some runs" true
    (stats.Firefly.Explore.executions >= 1);
  Alcotest.(check bool) "the first hit ended the search" false
    stats.Firefly.Explore.complete

let test_explore_bounded_finds_race () =
  let final = ref 0 in
  let build machine =
    ignore
      (M.spawn_root machine (fun () ->
           let a = Ops.alloc 1 in
           let incr () =
             let v = Ops.read a in
             Ops.write a (v + 1)
           in
           let t1 = Ops.spawn incr in
           let t2 = Ops.spawn incr in
           Ops.join t1;
           Ops.join t2;
           final := Ops.read a))
  in
  let found, _ =
    Firefly.Explore.explore ~max_preemptions:1 ~stop_at_first:true
      ~max_depth:200 ~build (fun outcome ->
        match outcome.Firefly.Explore.verdict with
        | Firefly.Interleave.Completed when !final = 1 -> Some "lost update"
        | _ -> None)
  in
  Alcotest.(check (list string)) "found with 1 preemption" [ "lost update" ]
    found

let test_eventcount () =
  let r =
    run_rr (fun machine ->
        ignore
          (M.spawn_root machine (fun () ->
               let ec = Firefly.Eventcount.create () in
               assert (Firefly.Eventcount.read ec = 0);
               assert (Firefly.Eventcount.advance ec = 1);
               assert (Firefly.Eventcount.advance ec = 2);
               assert (Firefly.Eventcount.read ec = 2))))
  in
  Alcotest.(check bool) "eventcount" true (completed r && no_failures r)

(* ---- livelock certificates ---- *)

module E10 = Threads_harness.E10

let is_livelock (r : Firefly.Interleave.report) =
  match r.verdict with Firefly.Interleave.Livelock _ -> true | _ -> false

let certified_seeds run ~upto =
  List.filter (fun seed -> is_livelock (run ~seed)) (List.init upto Fun.id)

(* A certificate never over-claims: certified seeds, rerun without it
   under their old bounds, run out to [Step_limit]. *)
let test_certificate_replays_to_step_limit () =
  let preempting =
    certified_seeds ~upto:E10.seeds (fun ~seed ->
        E10.pv_run ~certify:true ~prefer:true ~seed ())
  in
  let faulted =
    certified_seeds ~upto:E10.anti_pattern_runs (fun ~seed ->
        E10.anti_pattern_run ~certify:true ~seed ())
  in
  Alcotest.(check int) "preempting mode: 225 certified" 225
    (List.length preempting);
  Alcotest.(check int) "E10b: 11 certified" 11 (List.length faulted);
  let step_limit (r : Firefly.Interleave.report) =
    r.verdict = Firefly.Interleave.Step_limit
  in
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "preempting seed %d runs to 200k" seed)
        true
        (step_limit (E10.pv_run ~prefer:true ~seed ())))
    (List.filteri (fun i _ -> i < 8) preempting);
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "E10b seed %d runs to 1M" seed)
        true
        (step_limit (E10.anti_pattern_run ~seed ())))
    (List.filteri (fun i _ -> i < 2) faulted)

(* Where nothing livelocks, certifying changes nothing: no verdict, step,
   cycle or instruction moves. *)
let test_certificate_is_inert () =
  for seed = 0 to E10.seeds - 1 do
    let plain = E10.pv_run ~seed () in
    let cert = E10.pv_run ~certify:true ~seed () in
    let same what f =
      if f plain <> f cert then
        Alcotest.failf "seed %d: %s differs with certify" seed what
    in
    if is_livelock cert then Alcotest.failf "seed %d: certified" seed;
    same "verdict" (fun r -> r.Firefly.Interleave.verdict);
    same "steps" (fun r -> r.Firefly.Interleave.steps);
    same "total_cycles" (fun r -> M.total_cycles r.Firefly.Interleave.machine);
    same "instructions" (fun r ->
        M.total_instructions r.Firefly.Interleave.machine)
  done

(* The root holds a spin-lock and joins a thread that spins on it. *)
let spin_on_held ~chaos ~certify =
  let spinner = ref (-1) and word = ref (-1) in
  let r =
    Firefly.Interleave.run ~max_steps:500 ~certify
      ~strategy:(Firefly.Sched.round_robin ()) (fun machine ->
        M.set_chaos_active machine chaos;
        ignore
          (M.spawn_root machine (fun () ->
               let l = Taos_threads.Spinlock.create () in
               word := Taos_threads.Spinlock.addr l;
               Taos_threads.Spinlock.acquire l;
               spinner :=
                 Ops.spawn (fun () -> Taos_threads.Spinlock.acquire l);
               Ops.join !spinner)))
  in
  (r, !spinner, !word)

let test_spin_declaration () =
  let r, spinner, word = spin_on_held ~chaos:false ~certify:false in
  Alcotest.(check bool) "uncertified: step limit" true
    (r.verdict = Firefly.Interleave.Step_limit);
  Alcotest.(check (option int)) "declared spin" (Some word)
    (M.spin_word r.machine spinner);
  let certified ~chaos =
    let r, spinner, word = spin_on_held ~chaos ~certify:true in
    match r.verdict with
    | Firefly.Interleave.Livelock l ->
      Alcotest.(check (list int)) "witness (spinner, word)" [ spinner; word ]
        [ l.spinner; l.word ];
      Alcotest.(check (option int)) "witness holder" (Some 0) l.holder;
      Alcotest.(check int) "at_step" r.steps l.at_step
    | _ -> Alcotest.fail "expected Livelock"
  in
  certified ~chaos:false;
  let r, spinner, word = spin_on_held ~chaos:true ~certify:false in
  Alcotest.(check bool) "uncertified backoff: step limit" true
    (r.verdict = Firefly.Interleave.Step_limit);
  Alcotest.(check (option int)) "capped backoff declares its spin"
    (Some word) (M.spin_word r.machine spinner);
  certified ~chaos:true

(* Deterministic cost pins: simulated cycles of seven fixed runs across
   the layers (the Threads package on the interleaving and timed
   drivers, the sim backend with and without an access log, the fault
   engine).  Same seed, same schedule, so each count is exact on any
   host; a change that makes the simulated package or its drivers do
   more (or less) work moves one and must update it here on purpose. *)
type sync =
  (module Taos_threads.Sync_intf.SYNC with type thread = Threads_util.Tid.t)

let api_cycles ~seed body =
  M.total_cycles (Taos_threads.Api.run ~seed body).Firefly.Interleave.machine

let uncontended_pairs (sync : sync) =
  let module Sy = (val sync) in
  let m = Sy.mutex () in
  for _ = 1 to 100 do
    Sy.acquire m;
    Sy.release m
  done

let timed_workers (sync : sync) =
  let module Sy = (val sync) in
  let m = Sy.mutex () in
  let worker () =
    for _ = 1 to 50 do
      Sy.acquire m;
      Ops.tick 10;
      Sy.release m
    done
  in
  List.iter Sy.join (List.init 4 (fun _ -> Sy.fork worker))

(* Drain 8 parked waiters with one Broadcast, or with 8 Signals plus a
   sweep-up Broadcast: a Signal may find its target awake but not yet
   re-checking the flag, so 8 signals need not wake all 8 waiters. *)
let drain_waiters ~broadcast (sync : sync) =
  let module Sy = (val sync) in
  let m = Sy.mutex () in
  let c = Sy.condition () in
  let flag = ref false in
  let waiter () =
    Sy.with_lock m (fun () ->
        while not !flag do
          Sy.wait m c
        done)
  in
  let ws = List.init 8 (fun _ -> Sy.fork waiter) in
  Sy.with_lock m (fun () -> flag := true);
  if not broadcast then
    for _ = 1 to 8 do
      Sy.signal c
    done;
  Sy.broadcast c;
  List.iter Sy.join ws

let test_cycle_pins () =
  let sim = Option.get (Threads_backend.Backend.find "sim") in
  let mutex = Option.get (Threads_backend.Workload.find "mutex") in
  let instrument =
    match sim.Threads_backend.Backend.instrument with
    | Threads_backend.Backend.Machine_access f -> f
    | _ -> Alcotest.fail "sim backend lost its machine instrument"
  in
  let log = Threads_analysis.Analysis.log () in
  let driver = Option.get sim.Threads_backend.Backend.chaos in
  let chaos plan () =
    let _, o = driver ~seed:7 ~plan mutex in
    M.total_cycles o.Threads_fault.Engine.machine
  in
  List.iter
    (fun (name, expected, cycles) ->
      Alcotest.(check int) name expected (cycles ()))
    [
      ("100 uncontended pairs", 500, fun () ->
          api_cycles ~seed:1 uncontended_pairs);
      ("timed, 4 workers x 50, 5 cpus", 5069, fun () ->
          let r =
            Taos_threads.Api.run_timed ~processors:5 ~seed:7 timed_workers
          in
          M.total_cycles r.Firefly.Timed.machine);
      ("drain 8 waiters with signals", 694, fun () ->
          api_cycles ~seed:3 (drain_waiters ~broadcast:false));
      ("drain 8 waiters with broadcast", 713, fun () ->
          api_cycles ~seed:3 (drain_waiters ~broadcast:true));
      ("sim mutex", 1878, fun () ->
          M.total_cycles (snd (instrument ~seed:7 mutex)));
      ("sim mutex, access log subscribed", 1878, fun () ->
          let observe = Threads_analysis.Analysis.record log in
          M.total_cycles (snd (instrument ~observe ~seed:7 mutex)));
      (* A plan that injects nothing leaves spin-lock backoff off: the
         run is the plain "sim mutex" run above, cycle for cycle. *)
      ("fault engine, empty plan", 1878,
       chaos Threads_fault.Plan.{ id = -1; actions = [] });
      ("fault engine, delay-wakeups plan", 1597,
       chaos (Threads_fault.Plan.generate ~plan_id:0 ()));
    ];
  (* The processor policy of the same 5-CPU run: per-CPU clocks, busy
     time, context switches and instruction steps. *)
  let r = Taos_threads.Api.run_timed ~processors:5 ~seed:7 timed_workers in
  Alcotest.(check (list int))
    "timed 5 cpus: sim, busy, switches, steps" [ 3641; 12569; 150; 3126 ]
    Firefly.Timed.[ r.sim_cycles; r.busy_cycles; r.context_switches; r.steps ];
  Alcotest.(check int) "sim mutex accesses" 1380
    (List.length (Threads_analysis.Analysis.accesses log))

(* The paper: "The implementation of semaphores is identical to mutexes:
   P is the same as Acquire and V is the same as Release".  Four threads
   contend through P/V on one semaphore, then through Acquire/Release on
   one mutex, on the same seed: both runs execute the same instructions
   on the same schedule, with the fast path and without it.  Only a
   mutex has a holder, so only the mutex run marks its bit acquired. *)
let test_semaphore_is_mutex () =
  let contend ~sem ~fast_path =
    let acquired = ref [] in
    let body (sync : sync) =
      let module Sy = (val sync) in
      let enter, leave =
        if sem then
          let s = Sy.semaphore () in
          ((fun () -> Sy.p s), fun () -> Sy.v s)
        else
          let m = Sy.mutex () in
          ((fun () -> Sy.acquire m), fun () -> Sy.release m)
      in
      let worker () =
        for _ = 1 to 10 do
          enter ();
          Sy.yield ();
          leave ()
        done
      in
      List.iter Sy.join (List.init 4 (fun _ -> Sy.fork worker))
    in
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random 5) (fun machine ->
          M.subscribe machine M.K_access (function
            | M.Ev_access { kind = M.A_lock_acq; addr; _ } ->
              acquired := M.word_name machine addr :: !acquired
            | _ -> ());
          Taos_threads.Api.build ~fast_path body machine)
    in
    let m = r.Firefly.Interleave.machine in
    ( [ M.total_cycles m; M.total_instructions m; r.Firefly.Interleave.steps;
        M.counter m "nub.acquire"; M.counter m "nub.release" ],
      List.filter (fun n -> n <> "nub-lock") !acquired )
  in
  List.iter
    (fun fast_path ->
      let label what = Printf.sprintf "fast_path=%b: %s" fast_path what in
      let mutex, held = contend ~sem:false ~fast_path in
      let sem, sem_held = contend ~sem:true ~fast_path in
      Alcotest.(check (list int))
        (label "cycles, instructions, steps, nub.acquire, nub.release")
        mutex sem;
      Alcotest.(check bool) (label "the threads contended") true
        (List.nth mutex 3 > 0 && List.nth mutex 4 > 0);
      Alcotest.(check int) (label "mutex bit acquired 40 times") 40
        (List.length held);
      Alcotest.(check (list string)) (label "no semaphore acquisition") []
        sem_held)
    [ true; false ]

(* Schedule-identity pins for the paths the cycle pins above miss: the
   fault engine's idle pick (a stall that takes every runnable thread off
   the processor), the step at which E10's first preempting-mode livelock
   is certified, and the timed driver at E2's 16 threads. *)
let test_schedule_pins () =
  let sim = Option.get (Threads_backend.Backend.find "sim") in
  let mutex = Option.get (Threads_backend.Workload.find "mutex") in
  let driver = Option.get sim.Threads_backend.Backend.chaos in
  let stall_all =
    Threads_fault.Plan.
      {
        id = 0;
        actions =
          List.init 5 (fun tid -> Stall { after = 30; tid; duration = 40 });
      }
  in
  let _, o = driver ~seed:7 ~plan:stall_all mutex in
  Alcotest.(check (list int))
    "fault engine, stall-all plan: cycles, steps" [ 3014; 1666 ]
    Threads_fault.Engine.[ M.total_cycles o.machine; o.steps ];
  let rec first_certified seed =
    let r = E10.pv_run ~certify:true ~prefer:true ~seed () in
    match r.Firefly.Interleave.verdict with
    | Firefly.Interleave.Livelock l -> [ seed; l.at_step ]
    | _ -> first_certified (seed + 1)
  in
  Alcotest.(check (list int))
    "E10 preempting mode: first certified seed, at_step" [ 22; 56 ]
    (first_certified 0);
  let r, _, _, _ =
    Threads_harness.E2.run_config ~threads:16 ~cs_len:20 ~think_len:80
  in
  Alcotest.(check (list int))
    "timed, E2 at 16 threads: sim_cycles, context_switches" [ 231040; 5578 ]
    Firefly.Timed.[ r.sim_cycles; r.context_switches ]

(* Allocation budgets: minor words per simulated step on four runs that
   stand for the simulator's hot paths — the uncontended fast path on the
   interleaving driver, a spin livelock run out to its step bound, the
   5-processor timed driver, and bare ticks picked among 16 threads,
   where a closure in the pick or in [step] would show.  Two more runs
   are DPOR searches, `repro explore --mode=dpor --jobs=1` on one
   scenario, counted per step with replayed prefixes included:
   naive-broadcast is the search perfbench's dpor-explore spends its time
   in, and disjoint-locks the one with the most observed steps per
   execution.  An observed step allocates its node, its footprint and
   the machine's touch events, and no list, set or tuple.  Within one
   build the counts repeat exactly; each bound is 1.25 times the count
   measured when the budget was set (the first three once spec events
   were built only for a subscriber, the fourth before the runnable walk
   moved into [Machine], the DPOR two once the search kept its sets as
   bitmasks), so a regression cannot creep in unseen. *)
let words_per_step run =
  let w0 = Gc.minor_words () in
  let steps = run () in
  (Gc.minor_words () -. w0) /. float_of_int steps

let test_allocation_budget () =
  let pairs (sync : sync) =
    let module Sy = (val sync) in
    let m = Sy.mutex () in
    for _ = 1 to 10_000 do
      Sy.acquire m;
      Sy.release m
    done
  in
  let rec step_limit_seed seed =
    match (E10.pv_run ~prefer:true ~seed ()).Firefly.Interleave.verdict with
    | Firefly.Interleave.Step_limit -> seed
    | _ -> step_limit_seed (seed + 1)
  in
  let livelock = step_limit_seed 0 in
  let dpor name () =
    let s = Option.get (Threads_harness.Explore_scenarios.find name) in
    let _, st =
      Firefly.Explore.explore_dpor_parallel ~max_depth:s.max_depth
        ~build:s.build s.check
    in
    st.Firefly.Explore.dpor_steps
  in
  List.iter
    (fun (name, bound, run) ->
      let w = words_per_step run in
      Printf.printf "%s: %.2f words per step\n" name w;
      if w > bound then
        Alcotest.failf "%s: %.2f minor words per step, budget %.2f" name w
          bound)
    [
      ( "E1 pairs, interleaving driver", 1.25 *. 19.01,
        fun () ->
          (Taos_threads.Api.run ~seed:1 pairs).Firefly.Interleave.steps );
      ( "E10 livelock to the step bound", 1.25 *. 15.00,
        fun () ->
          (E10.pv_run ~prefer:true ~seed:livelock ()).Firefly.Interleave.steps
      );
      ( "E2 body, 5-processor timed driver", 1.25 *. 17.57,
        fun () ->
          (Taos_threads.Api.run_timed ~processors:5 ~seed:7 timed_workers)
            .Firefly.Timed.steps );
      ( "16 ticking threads, interleaving driver", 1.25 *. 15.03,
        fun () ->
          (Firefly.Interleave.run ~strategy:(Firefly.Sched.random 3)
             (fun machine ->
               for _ = 1 to 16 do
                 ignore
                   (M.spawn_root machine (fun () ->
                        for _ = 1 to 2_000 do
                          Ops.tick 1
                        done))
               done))
            .Firefly.Interleave.steps );
      ("DPOR naive-broadcast", 1.25 *. 35.90, dpor "naive-broadcast");
      ("DPOR disjoint-locks", 1.25 *. 50.88, dpor "disjoint-locks");
    ]

(* Both explorers dispose of every machine they abandon.  Every thread of
   the scenario runs inside a host-side [Fun.protect] and ends blocked for
   good, so each thread a replay started is unwound exactly once; one more
   thread swallows every exception and blocks again, and disposal must
   still end.  Disposal comes after [check] and changes nothing it read:
   each checked machine reads the same counts, statuses and events
   afterwards, and the search reports what it reported before machines
   were disposed. *)
let test_explore_disposes () =
  let entered = ref 0 and unwound = ref 0 in
  let events = ref [] and checked = ref [] in
  let guarded body =
    Fun.protect ~finally:(fun () -> incr unwound) (fun () ->
        incr entered;
        body ())
  in
  let build machine =
    let n = ref 0 in
    events := (machine, n) :: !events;
    List.iter
      (fun k -> M.subscribe machine k (fun _ -> incr n))
      M.[ K_spec; K_access; K_touch; K_prof; K_stat ];
    ignore
      (M.spawn_root machine (fun () ->
           guarded (fun () ->
               let a = Ops.alloc 2 in
               let child () =
                 guarded (fun () ->
                     Ops.write a 1;
                     Ops.deschedule_and_clear (a + 1))
               in
               let rec swallow () =
                 (try Ops.deschedule_and_clear (a + 1) with _ -> ());
                 swallow ()
               in
               let t1 = Ops.spawn child in
               ignore (Ops.spawn swallow);
               Ops.write a 2;
               Ops.join t1)))
  in
  let reading m =
    ( M.total_cycles m, M.total_instructions m, M.runnable m, M.blocked m,
      List.length (M.failures m), !(List.assq m !events) )
  in
  let check (o : Firefly.Explore.outcome) =
    checked := (o.machine, reading o.machine) :: !checked;
    match o.verdict with
    | Firefly.Interleave.Deadlock ts -> Some (Printf.sprintf "%d blocked" (List.length ts))
    | _ -> None
  in
  let stats (s : Firefly.Explore.stats) =
    [ s.executions; s.sleep_blocked; s.dpor_truncated; s.dpor_steps; s.peak_depth ]
  in
  let dfs_found, dfs = Firefly.Explore.explore ~build check in
  let dpor_found, dpor =
    Firefly.Explore.explore_dpor_parallel ~jobs:1 ~build check
  in
  Alcotest.(check (list string)) "dfs violations" [ "3 blocked" ] dfs_found;
  Alcotest.(check (list string)) "dpor violations" [ "3 blocked" ] dpor_found;
  Alcotest.(check (list int)) "dfs stats" [ 336; 0; 0; 5966; 11 ] (stats dfs);
  Alcotest.(check (list int)) "dpor stats" [ 5; 4; 0; 65; 11 ] (stats dpor);
  Alcotest.(check bool) "threads were unwound" true (!unwound > 0);
  Alcotest.(check int) "every started thread unwound once" !entered !unwound;
  List.iter
    (fun (m, before) ->
      if reading m <> before then Alcotest.fail "disposal changed a checked machine")
    !checked

(* The ambient slot's contract.  Outside any step there is no machine:
   [Probe.self] is [None] and [Probe.now] is 0.  Inside a step they name
   the stepping thread and its machine's clock.  A step restores the
   caller's slot however it ends: after a [K_spec] subscriber raises,
   after [dispose], and after a step of machine B taken inside a thread of
   machine A.  Each domain has its own slot. *)
let test_ambient_slot () =
  let outside what =
    Alcotest.(check (option int)) (what ^ ": Probe.self outside") None
      (M.Probe.self ());
    Alcotest.(check int) (what ^ ": Probe.now outside") 0 (M.Probe.now ())
  in
  outside "before any step";
  let seen = ref [] in
  let r =
    run_rr (fun machine ->
        for _ = 1 to 3 do
          ignore
            (M.spawn_root machine (fun () ->
                 let me = Ops.self () in
                 Ops.tick 5;
                 seen := (me, M.Probe.self (), M.Probe.now ()) :: !seen))
        done)
  in
  Alcotest.(check bool) "three threads ran" true (completed r);
  List.iter
    (fun (me, self, now) ->
      Alcotest.(check (option int)) "Probe.self inside a step" (Some me) self;
      Alcotest.(check bool) "Probe.now inside a step" true (now > 0))
    !seen;
  outside "after a run";
  (* Machine B, whose only thread is stopped at a [mem_emit] whose thunk
     publishes to a raising subscriber.  The thunk runs inside [step] but
     outside the thread, so its exception leaves [step]. *)
  let raising () =
    let b = M.create () in
    M.subscribe b M.K_spec (fun _ -> failwith "subscriber");
    let t =
      M.spawn_root b (fun () ->
          ignore
            (Ops.mem_emit M.M_none (fun _ ->
                 M.Probe.emit
                   Spec_trace.{ self = 0; action = Acquire { m = 1 } })))
    in
    ignore (M.step b t);
    (b, t)
  in
  let raises b t =
    match M.step b t with
    | _ -> false
    | exception Failure _ -> true
  in
  let b, t = raising () in
  Alcotest.(check bool) "the subscriber raised" true (raises b t);
  outside "after a raising step";
  M.dispose b;
  outside "after dispose";
  let inner = ref [] in
  let r =
    run_rr (fun a ->
        ignore (M.spawn_root a (fun () -> Ops.tick 1));
        ignore
          (M.spawn_root a (fun () ->
               let me = Ops.self () in
               let back what =
                 inner :=
                   (what, M.Probe.self () = Some me
                          && M.Probe.now () = M.total_cycles a)
                   :: !inner
               in
               let b = M.create () in
               let tb =
                 M.spawn_root b (fun () ->
                     Ops.tick 100;
                     inner := ("inside B", M.Probe.now () = 100) :: !inner)
               in
               while M.runnable_count b > 0 do
                 ignore (M.step b tb)
               done;
               back "after stepping B";
               let b, t = raising () in
               ignore (raises b t);
               back "after B's raising step";
               M.dispose b;
               back "after disposing B")))
  in
  Alcotest.(check bool) "machine A completed" true (completed r);
  Alcotest.(check (list (pair string bool)))
    "A's slot is back"
    [ ("inside B", true); ("after stepping B", true);
      ("after B's raising step", true); ("after disposing B", true) ]
    (List.rev !inner);
  (* Two domains at once: every thread sees its own machine's clock and
     its own tid, on machines of different sizes, throughout. *)
  let go = Atomic.make 0 in
  let own threads () =
    Atomic.incr go;
    while Atomic.get go < 2 do Domain.cpu_relax () done;
    let ok = ref true in
    let r =
      Firefly.Interleave.run ~strategy:(Firefly.Sched.random threads)
        (fun machine ->
          for _ = 1 to threads do
            ignore
              (M.spawn_root machine (fun () ->
                   let me = Ops.self () in
                   for _ = 1 to 2_000 do
                     Ops.tick threads;
                     if
                       M.Probe.self () <> Some me
                       || M.Probe.now () <> M.total_cycles machine
                     then ok := false
                   done))
          done)
    in
    !ok && completed r
  in
  let other = Domain.spawn (own 5) in
  let here = own 3 () in
  Alcotest.(check (pair bool bool)) "each domain sees only its machine"
    (true, true) (here, Domain.join other);
  outside "after both domains"

(* [Machine.nth_runnable] against a list oracle: over random status mixes
   of 1-20 threads, the walk finds what [List.nth_opt] finds in the
   filtered [Machine.runnable] list, for every index and every start tid,
   with and without the interrupt-only and [among] filters, and past the
   end reads [-1 - count]. *)
let test_runnable_walk () =
  let rng = Threads_util.Rng.create 11 in
  let mix () =
    let m = M.create () in
    let n = 1 + Threads_util.Rng.int rng 20 in
    for _ = 1 to n do
      let interrupt = Threads_util.Rng.int rng 3 = 0 in
      let body, steps =
        match Threads_util.Rng.int rng 5 with
        | 0 -> ((fun () -> Ops.tick 1), 0)  (* fresh: runnable *)
        | 1 -> ((fun () -> Ops.tick 1), 1)  (* at an effect: runnable *)
        | 2 -> (ignore, 1)  (* finished *)
        | 3 -> ((fun () -> failwith "mix"), 1)  (* failed *)
        | _ -> ((fun () -> Ops.deschedule_and_clear 0), 2)
        (* blocked; an interrupt thread fails instead *)
      in
      let tid = M.spawn_root m ~interrupt body in
      for _ = 1 to steps do
        if M.is_runnable m tid then ignore (M.step m tid)
      done
    done;
    if Threads_util.Rng.int rng 4 = 0 then
      M.kill m (Threads_util.Rng.int rng n) ~reason:"mix";
    (m, n)
  in
  let oracle l i =
    match List.nth_opt l i with Some tid -> tid | None -> -1 - List.length l
  in
  let cases = ref 0 in
  for _ = 1 to 300 do
    let m, n = mix () in
    let mask = Threads_util.Rng.int rng (1 lsl n) in
    List.iter
      (fun among ->
        let keep tid = match among with None -> true | Some f -> f tid in
        List.iter
          (fun intr ->
            for from = 0 to n do
              let l =
                List.filter
                  (fun tid ->
                    tid >= from && keep tid
                    && ((not intr) || M.is_interrupt m tid))
                  (M.runnable m)
              in
              for i = 0 to n do
                incr cases;
                let got = M.nth_runnable m ~from ~intr among i in
                if got <> oracle l i then
                  Alcotest.failf
                    "n=%d from=%d intr=%b among=%b i=%d: walk %d, oracle %d" n
                    from intr (among <> None) i got (oracle l i)
              done;
              Alcotest.(check int) "count" (List.length l)
                (-1 - M.nth_runnable m ~from ~intr among max_int)
            done)
          [ false; true ])
      [ None; Some (fun tid -> mask land (1 lsl tid) <> 0) ];
    M.dispose m
  done;
  Alcotest.(check bool) "cases ran" true (!cases > 10_000)

let suite =
  ( "machine",
    [
      Alcotest.test_case "memory ops" `Quick test_memory_ops;
      Alcotest.test_case "tas semantics" `Quick test_tas_semantics;
      Alcotest.test_case "spawn/join" `Quick test_spawn_join;
      Alcotest.test_case "join finished thread" `Quick test_join_finished;
      Alcotest.test_case "deschedule/ready" `Quick test_deschedule_ready;
      Alcotest.test_case "wakeup-waiting switch" `Quick test_wakeup_pending;
      Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
      Alcotest.test_case "interrupt cannot block" `Quick
        test_interrupt_cannot_block;
      Alcotest.test_case "counters and accounting" `Quick
        test_counters_and_instr;
      Alcotest.test_case "mem_emit atomicity" `Quick test_mem_emit_atomicity;
      Alcotest.test_case "seeded determinism" `Quick test_determinism;
      Alcotest.test_case "timed driver" `Quick test_timed_driver;
      Alcotest.test_case "explore finds lost update" `Quick
        test_explore_finds_race;
      Alcotest.test_case "bounded explore finds lost update" `Quick
        test_explore_bounded_finds_race;
      Alcotest.test_case "eventcount" `Quick test_eventcount;
      Alcotest.test_case "certified livelocks replay to step limit" `Quick
        test_certificate_replays_to_step_limit;
      Alcotest.test_case "certificate inert without livelock" `Quick
        test_certificate_is_inert;
      Alcotest.test_case "spin declaration and witness" `Quick
        test_spin_declaration;
      Alcotest.test_case "simulated cycle pins" `Quick test_cycle_pins;
      Alcotest.test_case "schedule-identity pins" `Quick test_schedule_pins;
      Alcotest.test_case "semaphore runs as a mutex" `Quick
        test_semaphore_is_mutex;
      Alcotest.test_case "allocation budget per step" `Quick
        test_allocation_budget;
      Alcotest.test_case "explorers dispose abandoned machines" `Quick
        test_explore_disposes;
      Alcotest.test_case "ambient slot: per step, restored, per domain"
        `Quick test_ambient_slot;
      Alcotest.test_case "runnable walk matches the list oracle" `Quick
        test_runnable_walk;
    ] )
