(** Cross-backend differential conformance.

    [conform] replays one backend's traces against the formal
    specification over many seeds; [diff] does so for every registered
    backend on one workload, which is the whole test: conforming backends
    must complete with identical observables and zero violations, while
    the baselines diverge exactly where experiments E5 and E8 say —
    [naive] deadlocks the broadcast workload, [hoare] accumulates one
    Resume violation per effective signal. *)

(** One checked seed.  The trace itself is not kept: a summary of many
    seeds would otherwise hold every trace after its check. *)
type run = {
  seed : int;
  verdict : Backend.verdict;
  observable : string option;
  report : Threads_model.Conformance.report;
}

type summary = {
  backend : Backend.t;
  workload : Workload.t;
  skipped : bool;  (** workload needs a feature the backend lacks *)
  runs : run list;
}

(** [conform ?jobs b w ~seeds] — run seeds [0..seeds-1] and check each
    trace.  [jobs] > 1 distributes the seed matrix over that many OCaml
    domains with {!Threads_runner.Matrix}; every cell is an isolated
    machine with its own per-seed RNG and domain-local probe slot, and
    results keep index order, so the summary is identical for any
    [jobs].  [?telemetry] attaches a host-side observation sink to the
    seed matrix (see {!Threads_runner.Telemetry}); it never changes the
    summary. *)
val conform :
  ?telemetry:Threads_runner.Telemetry.sink -> ?jobs:int -> Backend.t ->
  Workload.t -> seeds:int -> summary

(** [run_one b w ~seed] — one conformance cell: run the workload on seed
    [seed] and check the emitted trace against the spec; returns the
    checked run and the trace.  The generative engine's per-scenario
    entry point. *)
val run_one :
  Backend.t -> Workload.t -> seed:int -> run * Spec_trace.event list

(** Aggregates over a summary's runs. *)

val violations : summary -> int
val events : summary -> int
val completed : summary -> bool

(** Verdict string -> occurrence count.  A new verdict goes to the back
    and a verdict counted again moves to the front: completed, deadlock,
    deadlock gives [[deadlock 2; completed 1]]. *)
val verdicts : summary -> (string * int) list

(** Distinct observables, sorted. *)
val observables : summary -> string list

(** Every seed completed, one observable, zero violations. *)
val ok : summary -> bool

(** First spec violation, rendered with its seed and trace position. *)
val first_error : summary -> string option

(** [diff ?jobs w ~seeds] — [conform] on every registered backend; the
    whole backend x seed matrix is one executor matrix. *)
val diff :
  ?telemetry:Threads_runner.Telemetry.sink -> ?jobs:int -> Workload.t ->
  seeds:int -> summary list

(** {1 Chaos conformance}

    Backend x workload x fault plan, the robustness contract of the
    fault-injection layer: every run must either complete conformant or
    terminate with a diagnosed fault report naming the injected fault —
    never a silent hang (a wedged run ends in a deadlock, a certified
    livelock, or the engine's step budget) and never a spec
    violation. *)

type chaos_class =
  | Conformant
      (** completed, zero violations, no failed threads *)
  | Diagnosed
      (** zero violations; the deadlock / livelock / budget exhaustion
          / crash-stopped thread is attributed to a recorded injected
          fault *)
  | Violation  (** the trace broke the spec — always a bug *)
  | Unexplained
      (** a failure with no injected fault to blame — always a bug *)

val class_name : chaos_class -> string

type chaos_run = {
  c_seed : int;
  c_plan : Threads_fault.Plan.t;
  c_observable : string option;
  c_outcome : Threads_fault.Engine.outcome;
  c_report : Threads_model.Conformance.report;
  c_class : chaos_class;
}

(** [chaos_one b w ~seed plan] — one run under the fault engine, trace
    checked against the spec and classified.  Raises [Invalid_argument]
    if [b] has no chaos driver. *)
val chaos_one :
  Backend.t -> Workload.t -> seed:int -> Threads_fault.Plan.t -> chaos_run

type chaos_totals = {
  ct_backend : Backend.t;
  ct_workload : Workload.t;
  ct_skipped : bool;
  ct_runs : int;
  ct_classes : (string * int) list;
      (** class name -> count, ordered as {!verdicts} orders verdicts *)
  ct_failures : (int * int * chaos_class) list;
      (** (plan, seed, class) of every Violation / Unexplained run *)
}

(** Every run classified [Conformant] or [Diagnosed]. *)
val chaos_totals_ok : chaos_totals -> bool

(** [chaos_stream ?jobs ~emit b w ~plans ~seeds] — plans
    [0..plans-1] x seeds [0..seeds-1], parallelized like {!conform}.
    [emit] receives the deterministic fault report in chunks (called on
    the calling domain, in cell order, for any [jobs]): a header, one
    block per run, and a summary of the class counts.  Equal (backend,
    workload, plan, seed) render byte-equal blocks.  Each run is dropped
    once rendered, so memory stays flat at any matrix size. *)
val chaos_stream :
  ?telemetry:Threads_runner.Telemetry.sink ->
  ?jobs:int ->
  emit:(string -> unit) ->
  Backend.t ->
  Workload.t ->
  plans:int ->
  seeds:int ->
  chaos_totals
