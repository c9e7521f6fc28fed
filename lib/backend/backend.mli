(** First-class registry of Threads-package backends.

    A backend packages a {!Taos_threads.Sync_intf.SYNC} implementation
    with a runner and trace capture: [run ~seed workload] executes the
    workload body against that implementation and returns its verdict,
    observable and the {!Spec_trace} event sequence the backend emitted at
    its linearization points.  Five are registered:

    - [sim] — the Taos two-layer implementation on the Firefly simulator;
    - [uniproc] — the cooperative uniprocessor implementation;
    - [naive] — conditions as binary semaphores, the design the paper
      rejects (strands waiters under Broadcast, experiment E5);
    - [hoare] — Hoare monitors, whose signal hands the mutex over and so
      violates Resume's [WHEN (m = NIL)] (experiment E8);
    - [multicore] — OCaml 5 domains with atomic fast paths, traced via
      appends under the package's spin-lock.

    Simulator-hosted backends honour [~seed] (schedule randomization);
    [multicore] takes its nondeterminism from the hardware. *)

type verdict = Completed | Deadlocked | Crashed of string

type outcome = {
  verdict : verdict;
  observable : string option;  (** workload result; [None] unless completed *)
  trace : Spec_trace.event list;  (** linearization-point events, in order *)
  steps : int option;  (** simulator backends only *)
}

(** How a backend exposes itself to [lib/analysis] and [Obs.Profile].
    Simulator-hosted backends run the workload on a machine whose
    recording stream [?observe] subscribes to, right after the machine is
    created, and return that machine with its word/lock registries:
    the access log feeds all three dynamic analyzers and the causal-edge
    fold ([Obs.Profile.record]) feeds the profiler.  Observed runs use
    the same seeds and schedules as [run] (subscribers are host-side,
    not instructions).  A backend with [No_instrument] (multicore, on
    real hardware) has no machine: lock-order analysis reads the spec
    trace its [run] returns. *)
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
      (** run under the fault-injection engine ([lib/fault]) replaying
          [plan], with [?observe] subscribed to the machine; returns the
          workload observable (if the root finished) and the engine
          outcome.  Deterministic in (seed, plan).  [None]
          for backends the chaos driver cannot host — the baselines (not
          part of the robustness claim) and hardware backends (no
          simulated machine to perturb) *)
}

(** [supports b w] — does [b] provide every feature [w] needs? *)
val supports : t -> Workload.t -> bool

val pp_verdict : Format.formatter -> verdict -> unit

val all : t list
val find : string -> t option
val names : unit -> string list
