(** Systematic-exploration scenarios for [repro explore].

    Each scenario is a small closed program (2–4 threads) on a bounded
    backend — the cooperative uniprocessor package or the Hoare monitor
    package, whose blocking operations are single deschedules rather than
    test-and-set retry chains, so the schedule tree is finite — together
    with a checker that maps a terminal outcome to a canonical violation
    string and the violation set the scenario is expected to produce.

    The checkers must be canonical: two different schedules exhibiting
    the same defect must yield byte-identical strings, because DPOR and
    plain DFS traverse different executions and are compared on the
    {e set} of violations, and the parallel explorer merges sets found by
    different workers. *)

module M = Firefly.Machine
module Ops = Firefly.Machine.Ops
module Tid = Threads_util.Tid

type t = {
  name : string;
  description : string;
  build : M.t -> unit;
  check : Firefly.Explore.outcome -> string option;
  expect : string list;
      (* expected violation set; [] means the scenario must verify clean *)
  max_depth : int;
}

let iface = Spec_core.Threads_interface.final
let scenario_alerted = M.counter_id "scenario.alerted"
let scenario_bad = M.counter_id "scenario.bad"

(* ---- checkers ---- *)

let verdict_check label (outcome : Firefly.Explore.outcome) =
  match outcome.verdict with
  | Firefly.Interleave.Deadlock blocked ->
    Some
      (Printf.sprintf "%s: deadlock blocked=[%s]" label
         (String.concat ","
            (List.map string_of_int (List.sort compare blocked))))
  | Firefly.Interleave.Step_limit -> Some (label ^ ": step limit hit")
  | Firefly.Interleave.Livelock { spinner; word; holder; _ } ->
    Some
      (Printf.sprintf "%s: livelock t%d spins on %s held by %s" label
         spinner
         (M.word_name outcome.machine word)
         (match holder with
         | Some h -> Printf.sprintf "t%d" h
         | None -> "no recorded owner"))
  | Firefly.Interleave.Completed -> None

(* The spec trace of the replay in progress on this domain.  [traced]
   wraps a scenario's build to subscribe a fresh collector, and
   [conformance_check] reads it back.  The explorers run each replay's
   build and check back to back on one domain, also when the tree is
   split over several, so the slot always holds the checked machine. *)
let replay_trace : (M.t * Spec_trace.Sink.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let traced build machine =
  let sink = Spec_trace.Sink.create () in
  Firefly.Record.trace sink machine;
  Domain.DLS.set replay_trace (Some (machine, sink));
  build machine

(* Replay the run's spec trace through the conformance checker; distinct
   error messages (deterministic: object ids and thread ids are
   machine-local) joined in sorted order form the canonical string. *)
let conformance_check label (outcome : Firefly.Explore.outcome) =
  match verdict_check label outcome with
  | Some _ as v -> v
  | None -> (
    let trace =
      match Domain.DLS.get replay_trace with
      | Some (m, sink) when m == outcome.machine -> Spec_trace.Sink.events sink
      | _ -> invalid_arg "conformance_check: scenario build is not [traced]"
    in
    let report = Threads_model.Conformance.check iface trace in
    match report.Threads_model.Conformance.errors with
    | [] -> None
    | errs ->
      let msgs =
        List.sort_uniq String.compare
          (List.map
             (fun e -> e.Threads_model.Conformance.message)
             errs)
      in
      Some (Printf.sprintf "%s: %s" label (String.concat " | " msgs)))

(* A checker that also fails if the program recorded a broken invariant
   through the machine's counter instrument. *)
let invariant_check label counter_name (outcome : Firefly.Explore.outcome) =
  match verdict_check label outcome with
  | Some _ as v -> v
  | None ->
    if M.counter outcome.machine counter_name > 0 then
      Some (Printf.sprintf "%s: invariant %s violated" label counter_name)
    else None

(* ---- programs ---- *)

(* The paper's wakeup-waiting window: Wait releases the mutex in one
   atomic action and blocks in a later instruction, so a Signal can land
   in between; the package must latch it (the "wakeup waiting" bit) or
   the wakeup is lost and both threads sleep forever.  Exhaustive
   exploration proves the latch covers the whole window. *)
let wakeup_waiting =
  let build =
    Taos_threads.Uniproc.build (fun (module S) ->
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
        S.join w)
  in
  {
    name = "wakeup-waiting";
    description =
      "one waiter, one signaller; a lost wakeup in the window between \
       Wait's release and its block deadlocks both";
    build;
    check = verdict_check "lost wakeup";
    expect = [];
    max_depth = 600;
  }

(* Alert racing a Signal at a waiter that entered the alertable window:
   whichever lands first, the waiter must leave Wait (by Alerted or by
   resumption) and the program must terminate — and an alerted exit must
   still hold the mutex (checked by the invariant counter). *)
let alert_cancellation =
  let build =
    Taos_threads.Uniproc.build (fun (module S) ->
        let m = S.mutex () in
        let c = S.condition () in
        let flag = ref false in
        let w =
          S.fork (fun () ->
              try
                S.with_lock m (fun () ->
                    while not !flag do
                      S.alert_wait m c
                    done)
              with Taos_threads.Sync_intf.Alerted ->
                (* AlertResume's RAISES case re-acquired the mutex, and
                   with_lock's finally released it on the way out. *)
                Ops.incr_counter scenario_alerted)
        in
        S.alert w;
        S.with_lock m (fun () -> flag := true);
        S.signal c;
        S.join w)
  in
  {
    name = "alert-cancel";
    description =
      "Alert races Signal at an alertable waiter; every ordering must \
       terminate with the waiter out of the queue";
    build;
    check = verdict_check "alert-cancellation";
    expect = [];
    max_depth = 800;
  }

(* E5's defect, minimal closed form: a condition variable encoded as a
   semaphore strands a waiter under Broadcast when two waiters sit in the
   race window between Release(m) and P(c).  Exploration must find the
   stranding deadlock (and nothing else). *)
let naive_broadcast =
  let build =
    Taos_threads.Uniproc.build (fun (module S) ->
        let m = S.mutex () in
        let sem = S.semaphore () in
        S.p sem;
        (* the condition's semaphore starts unavailable *)
        let nwaiters = ref 0 in
        let flag = ref false in
        let naive_wait () =
          incr nwaiters;
          S.release m;
          S.p sem;
          decr nwaiters;
          S.acquire m
        in
        let waiter () =
          S.with_lock m (fun () -> if not !flag then naive_wait ())
        in
        let w1 = S.fork waiter in
        let w2 = S.fork waiter in
        S.with_lock m (fun () -> flag := true);
        (* naive broadcast: V once per currently-registered waiter *)
        for _ = 1 to !nwaiters do
          S.v sem
        done;
        S.join w1;
        S.join w2)
  in
  {
    name = "naive-broadcast";
    description =
      "semaphore-encoded condition variable vs Broadcast (E5): two \
       waiters in the Release/P window, one is stranded";
    build;
    check = verdict_check "stranded waiter";
    expect = [ "stranded waiter: deadlock blocked=[0,1]";
               "stranded waiter: deadlock blocked=[0,2]" ];
    max_depth = 600;
  }

(* Hoare signalling hands the monitor straight to the waiter: the
   waiter's Resume commits while the abstract mutex still belongs to the
   signaller, so conformance against the paper's specification must
   report the failed WHEN — on every schedule in which the signal finds a
   waiter (E8's deliberate non-conformance). *)
let hoare_signal =
  let build =
    traced @@ fun machine ->
    ignore
      (M.spawn_root machine (fun () ->
           let mon = Taos_threads.Hoare.monitor () in
           let c = Taos_threads.Hoare.condition mon in
           let ready = ref false in
           let waiter =
             Ops.spawn (fun () ->
                 Taos_threads.Hoare.with_monitor mon (fun () ->
                     if not !ready then Taos_threads.Hoare.wait c;
                     (* Hoare guarantee: predicate holds, no re-check *)
                     if not !ready then Ops.incr_counter scenario_bad))
           in
           Taos_threads.Hoare.with_monitor mon (fun () ->
               ready := true;
               Taos_threads.Hoare.signal c);
           Ops.join waiter))
  in
  {
    name = "hoare-signal";
    description =
      "Hoare monitor hand-off (E8): the waiter resumes while the \
       signaller still owns the abstract mutex — a WHEN violation the \
       checker must find on every signalling schedule";
    build;
    check = conformance_check "hoare hand-off";
    expect =
      [ "hoare hand-off: Wait.Resume by t1 with outcome RETURNS admitted \
         by no case: [RETURNS: when=false kind-match=true ensures=false]" ];
    max_depth = 600;
  }

(* Two pairs of threads contending on two unrelated mutexes: every step
   of pair A commutes with every step of pair B, so DPOR collapses the
   cross-product of interleavings while plain DFS enumerates it — the
   pinned reduction benchmark for CI. *)
let disjoint_locks =
  let build =
    Taos_threads.Uniproc.build (fun (module S) ->
        let ma = S.mutex () and mb = S.mutex () in
        let hits = ref 0 in
        let worker m = S.fork (fun () -> S.with_lock m (fun () -> incr hits)) in
        let a1 = worker ma and a2 = worker ma in
        let b1 = worker mb and b2 = worker mb in
        S.join a1; S.join a2; S.join b1; S.join b2;
        if !hits <> 4 then Ops.incr_counter scenario_bad)
  in
  {
    name = "disjoint-locks";
    description =
      "two independent mutex pairs; DPOR prunes the cross-product of \
       unrelated interleavings that DFS enumerates";
    build;
    check = invariant_check "disjoint-locks" "scenario.bad";
    expect = [];
    max_depth = 800;
  }

let all =
  [ wakeup_waiting; alert_cancellation; naive_broadcast; hoare_signal;
    disjoint_locks ]

let find name = List.find_opt (fun s -> s.name = name) all
