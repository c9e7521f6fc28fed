(** The chaos engine: replays a {!Plan} against a machine-hosted
    backend, as a policy over {!Firefly.Interleave.drive}.  It fires the
    plan's triggers before each step, keeps stalled threads out of the
    pick, and idles at rest while triggers remain.

    The engine is the only party that perturbs the run: delayed/dropped
    wakeups go through the machine's wakeup-interrupt filter; spurious
    wakeups, alert storms and contention bursts run as {e injector
    threads} through the chaos hooks the package registered at object
    creation, so they execute real package code with real events; stalls
    and crash-stops act on the schedule and thread set directly.  Every
    injected fault is recorded in {!Firefly.Machine.faults} for blame
    attribution.  A plan with no
    actions injects nothing and leaves spin-lock backoff off, so its run
    is the plain {!Firefly.Interleave.run} under [Sched.random] of the
    same seed with [~certify:true].

    Runs are deterministic: equal (seed, plan, build) yield equal
    schedules, traces and fault records.  A wedged run ends instead of
    hanging: at rest in [Deadlock] (a dropped wakeup); in [Livelock] once
    {!Firefly.Interleave.certificate} holds with no trigger pending and
    no stall active (a crash-stopped spin-lock holder); else at the
    300 000-step watchdog, in [Step_limit]. *)

type outcome = {
  verdict : Firefly.Interleave.verdict;
  steps : int;
  machine : Firefly.Machine.t;
      (** inspect trace / failures / metrics post-run *)
  injected : Firefly.Machine.fault list;
      (** every fault injected or observed, in sequence order *)
}

(** [pp_verdict m] prints [Step_limit] as "step budget exhausted" and a
    [Livelock] on [m] as "livelock: tN spins on <word name> held by tM"
    (or "held by no recorded owner"). *)
val pp_verdict :
  Firefly.Machine.t -> Format.formatter -> Firefly.Interleave.verdict -> unit

(** [run ~plan build] creates a machine, installs the wakeup filter,
    runs [build] (which must spawn the root workload thread), then
    drives the interleaving while firing the plan's triggers.  It picks
    among the runnable threads that are not stalled with
    [Sched.random seed]. *)
val run :
  ?seed:int ->
  plan:Plan.t ->
  (Firefly.Machine.t -> unit) ->
  outcome
