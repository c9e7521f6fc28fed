(** Cycle-accurate timed driver: P processors with per-processor clocks,
    time slicing and context-switch costs ({!Cost.default}) — the
    performance driver for throughput/latency experiments.

    It is a processor policy over {!Interleave.drive}: the one loop
    steps the machine, delivers wakeups and fires timers, and this
    driver only chooses what runs.  The processor with the smallest
    clock acts: it executes one instruction of its current thread,
    preempts it at slice expiry (if another thread is waiting), or picks
    the first waiting interrupt-context thread, else the lowest waiting
    tid.  Idle processors' clocks chase the busy ones, so cross-processor
    instruction order approximates true timing order.

    Timers fire on the machine clock, as under every driver (see
    {!Interleave.drive}), so TimedWait and TimedP time out here as they
    do under {!Interleave.run}.  [sim_cycles] stays processor time: it
    does not include the machine-clock jump of a run that waits at rest
    for a timer.  The run ends when the machine is at rest, without
    letting idle processors catch up with the clocks of processors whose
    threads have finished. *)

type report = {
  verdict : Interleave.verdict;
  machine : Machine.t;
  sim_cycles : int;  (** elapsed simulated time = max processor clock *)
  busy_cycles : int;  (** total non-idle cycles across processors *)
  context_switches : int;
  steps : int;  (** steps of {!Interleave.drive}, clock jumps included *)
}

(** [run ~processors build] — [build] spawns the root threads.  A run
    that takes 1_000_000 steps ends in [Interleave.Step_limit].
    Interrupt-context threads preempt: whenever one is runnable it is
    scheduled first. *)
val run :
  processors:int ->
  ?seed:int ->
  (Machine.t -> unit) ->
  report

(** [utilization report ~processors] is busy/(sim_cycles*processors). *)
val utilization : report -> processors:int -> float
