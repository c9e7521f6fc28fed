module Tid = Threads_util.Tid
module Sync_intf = Taos_threads.Sync_intf
module Ops = Firefly.Machine.Ops

type verdict = Completed | Deadlocked | Crashed of string

type outcome = {
  verdict : verdict;
  observable : string option;
  trace : Spec_trace.event list;
  steps : int option;  (** simulator backends only *)
}

type instrument =
  | Machine_access of
      (?observe:(Firefly.Machine.t -> unit) ->
      seed:int ->
      Workload.t ->
      outcome * Firefly.Machine.t)
  | No_instrument

type t = {
  name : string;
  description : string;
  real_parallelism : bool;
  conforming : bool;  (** false for the deliberately-divergent baselines *)
  supports : Workload.feature list;
  run : seed:int -> Workload.t -> outcome;
  instrument : instrument;
  chaos :
    (?observe:(Firefly.Machine.t -> unit) ->
    seed:int ->
    plan:Threads_fault.Plan.t ->
    Workload.t ->
    string option * Threads_fault.Engine.outcome)
    option;
      (** run under the fault-injection engine replaying [plan];
          [None] for backends the chaos driver cannot host *)
}

let supports b (wl : Workload.t) =
  List.for_all (fun f -> List.mem f b.supports) wl.needs

let pp_verdict ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlocked -> Format.pp_print_string ppf "deadlock"
  | Crashed msg -> Format.fprintf ppf "crashed: %s" msg

(* Shared wrapper for the drivers built on the simulator: map the
   interleaving report (plus any thread failures) and the collected spec
   trace to an outcome. *)
let of_report observable sink (report : Firefly.Interleave.report) =
  let verdict =
    match Firefly.Machine.failures report.machine with
    | (tid, e) :: _ ->
      Crashed (Printf.sprintf "t%d: %s" tid (Printexc.to_string e))
    | [] -> (
      match report.verdict with
      | Firefly.Interleave.Completed -> Completed
      | Firefly.Interleave.Deadlock _ -> Deadlocked
      | Firefly.Interleave.Step_limit -> Crashed "step limit"
      | Firefly.Interleave.Livelock _ -> Crashed "livelock")
  in
  {
    verdict;
    observable = (match verdict with Completed -> !observable | _ -> None);
    trace = Spec_trace.Sink.events sink;
    steps = Some report.steps;
  }

let max_steps = 2_000_000

(* Generic simulator-hosted runner: fresh machine, the spec-trace
   collector and [observe]'s subscribers attached, backend built inside a
   root thread.  The instruction sequence is the same whoever subscribes
   — subscribers are host-side, never an effect — so the [run] and
   [Machine_access] entry points of a backend see the same schedules for
   the same seed. *)
let machine_run build ?(observe = ignore) ~seed (wl : Workload.t) =
  let observable = ref None in
  let sink = Spec_trace.Sink.create () in
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
      ~max_steps (fun machine ->
        Firefly.Record.trace sink machine;
        observe machine;
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               observable := Some (wl.body (build ())))))
  in
  (of_report observable sink report, report.Firefly.Interleave.machine)

(* Chaos-engine counterpart of [machine_run]: same root-thread shape, but
   the fault engine drives the interleaving, replaying [plan]'s triggers.
   Both chaos-capable backends run under the engine's seed-derived random
   strategy, so equal (backend, workload, plan, seed) replay exactly. *)
let chaos_run build ?(observe = ignore) ~seed ~plan (wl : Workload.t) =
  let observable = ref None in
  let outcome =
    Threads_fault.Engine.run ~seed ~plan (fun machine ->
        observe machine;
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               observable := Some (wl.body (build ())))))
  in
  (!observable, outcome)

let taos_build () =
  let module S = (val Taos_threads.Api.make (Taos_threads.Pkg.create ())) in
  (module S : Sync_intf.SYNC)

let uniproc_build () =
  let module S = (val Taos_threads.Uniproc.make ()) in
  (module S : Sync_intf.SYNC)

let sim_run build ~seed wl = fst (machine_run build ~seed wl)

(* The rejected design as a full backend: the two-layer Taos mutex,
   semaphore and alert machinery, with conditions represented by a binary
   semaphore (Naive).  Alertable waits have no encoding there. *)
let naive_make pkg : (module Sync_intf.SYNC) =
  (module struct
    module T = Taos_threads

    type mutex = T.Mutex.t
    type condition = T.Naive.t
    type semaphore = T.Mutex.t
    type thread = Tid.t

    let mutex () = T.Mutex.create pkg
    let condition () = T.Naive.create pkg
    let semaphore () = T.Mutex.semaphore pkg
    let acquire = T.Mutex.acquire
    let release = T.Mutex.release
    let with_lock = T.Mutex.with_lock
    let wait m c = T.Naive.wait c m
    let signal = T.Naive.signal
    let broadcast = T.Naive.broadcast
    let p = T.Mutex.p
    let v = T.Mutex.v

    let alert target =
      T.Alerts.alert pkg.T.Pkg.alerts ~lock:pkg.T.Pkg.lock ~self:(Ops.self ())
        ~target

    let test_alert () = T.Alerts.test_alert pkg.T.Pkg.alerts ~self:(Ops.self ())
    let alert_wait _ _ = failwith "naive backend: alert_wait unsupported"
    let alert_p = T.Mutex.alert_p
    let timed_wait _ _ ~timeout:_ = failwith "naive backend: timed_wait unsupported"
    let timed_p = T.Mutex.timed_p
    let self () = Ops.self ()
    let fork f = Ops.spawn f
    let join = Ops.join
    let yield = Ops.yield
  end)

let naive_build () = naive_make (Taos_threads.Pkg.create ())

(* Hoare monitors as the mutex/condition pair (conditions bind to their
   monitor at first wait), Taos semaphores alongside; no alerting. *)
let hoare_make pkg : (module Sync_intf.SYNC) =
  (module struct
    module H = Taos_threads.Hoare

    type mutex = H.monitor
    type condition = { mutable bound : H.cond option }
    type semaphore = Taos_threads.Mutex.t
    type thread = Tid.t

    let mutex () = H.monitor ()
    let condition () = { bound = None }
    let semaphore () = Taos_threads.Mutex.semaphore pkg
    let acquire = H.enter
    let release = H.exit
    let with_lock = H.with_monitor

    let bind m c =
      match c.bound with
      | Some hc -> hc
      | None ->
        let hc = H.condition m in
        c.bound <- Some hc;
        hc

    let wait m c = H.wait (bind m c)

    (* An unbound condition never had a waiter: both wakes are no-ops. *)
    let signal c = Option.iter H.signal c.bound
    let broadcast c = Option.iter H.broadcast c.bound
    let p = Taos_threads.Mutex.p
    let v = Taos_threads.Mutex.v
    let alert _ = failwith "hoare backend: alerting unsupported"
    let test_alert () = failwith "hoare backend: alerting unsupported"
    let alert_wait _ _ = failwith "hoare backend: alerting unsupported"
    let alert_p _ = failwith "hoare backend: alerting unsupported"
    let timed_wait _ _ ~timeout:_ = failwith "hoare backend: timed_wait unsupported"
    let timed_p _ ~timeout:_ = failwith "hoare backend: timed_p unsupported"
    let self () = Ops.self ()
    let fork f = Ops.spawn f
    let join = Ops.join
    let yield = Ops.yield
  end)

let hoare_build () = hoare_make (Taos_threads.Pkg.create ())

let multicore_run ~seed:_ (wl : Workload.t) =
  let module MC = Threads_multicore.Multicore in
  match
    MC.traced_run (fun () -> wl.body (module MC.Sync : Sync_intf.SYNC))
  with
  | observable, trace ->
    { verdict = Completed; observable = Some observable; trace; steps = None }
  | exception e ->
    {
      verdict = Crashed (Printexc.to_string e);
      observable = None;
      trace = [];
      steps = None;
    }

let all =
  [
    {
      name = "sim";
      description = "Firefly simulator, Taos two-layer implementation";
      real_parallelism = false;
      conforming = true;
      supports = [ Workload.Alerts; Workload.Timeouts; Workload.Interrupts ];
      run = sim_run taos_build;
      instrument = Machine_access (machine_run taos_build);
      chaos = Some (chaos_run taos_build);
    };
    {
      name = "uniproc";
      description = "cooperative uniprocessor implementation";
      real_parallelism = false;
      conforming = true;
      supports = [ Workload.Alerts; Workload.Timeouts; Workload.Interrupts ];
      run = sim_run uniproc_build;
      instrument = Machine_access (machine_run uniproc_build);
      chaos = Some (chaos_run uniproc_build);
    };
    {
      name = "naive";
      description = "condition variables as binary semaphores (E5 baseline)";
      real_parallelism = false;
      conforming = false;
      supports = [ Workload.Interrupts ];
      run = sim_run naive_build;
      instrument = Machine_access (machine_run naive_build);
      chaos = None;
    };
    {
      name = "hoare";
      description = "Hoare monitors: signal hands over the mutex (E8 baseline)";
      real_parallelism = false;
      conforming = false;
      supports = [ Workload.Interrupts ];
      run = sim_run hoare_build;
      instrument = Machine_access (machine_run hoare_build);
      chaos = None;
    };
    {
      name = "multicore";
      description = "OCaml 5 domains with atomic fast paths";
      real_parallelism = true;
      conforming = true;
      supports = [ Workload.Alerts ];
      run = multicore_run;
      instrument = No_instrument;
      chaos = None;
    };
  ]

let find name = List.find_opt (fun b -> b.name = name) all
let names () = List.map (fun b -> b.name) all
