(** Instruction-granularity interleaving driver.

    Steps one runnable thread at a time under a {!Sched} strategy.  This is
    the correctness driver: it models threads running at arbitrary relative
    speeds, which is exactly the "programmer can reason as if there were as
    many processors as threads" stance the paper takes.

    Its loop, {!drive}, is the only one that steps a machine outside
    {!Explore}'s replay: {!Timed} and the fault engine are policies over
    it, given as {!hooks}. *)

type verdict =
  | Completed  (** every thread finished *)
  | Deadlock of Threads_util.Tid.t list  (** the blocked threads *)
  | Step_limit  (** the bound was hit with runnable threads remaining *)
  | Livelock of {
      spinner : Threads_util.Tid.t;  (** the thread whose step certified *)
      word : int;  (** the spin-lock word it spins on *)
      holder : Threads_util.Tid.t option;
          (** that word's recorded owner, if any: a witness only *)
      at_step : int;  (** steps taken when the certificate held *)
    }
      (** certified by {!certificate}: the run can only spin from here
          on *)

type report = {
  verdict : verdict;
  steps : int;
  machine : Machine.t;  (** for trace/counter inspection *)
}

(** [certificate m strategy spinner ~at_step], asked after a step by
    [spinner], is a [Livelock] when [m]'s future under [strategy] is a
    spin forever: [spinner] is in a declared spin
    ({!Machine.Probe.spin_on}), no timer is armed, no delayed wakeup is
    pending, and every runnable thread [strategy] can pick
    ({!Sched.interrupts_only}) is in a declared spin on a word that reads
    1.  A declared spinner only retries its TAS, so no
    candidate can clear a word, and every remaining step is a failed
    TAS.  The word's owner is a witness, not a premise: a thread
    crash-stopped between {!Machine.Probe.lock_released} and its clearing
    store leaves the word 1 with no owner.  Read host-side only. *)
val certificate :
  Machine.t -> Sched.t -> Threads_util.Tid.t -> at_step:int -> verdict option

(** [at_rest m] is the verdict of a machine with no runnable thread:
    [Deadlock (Machine.blocked m)] while a thread is live, else
    [Completed]. *)
val at_rest : Machine.t -> verdict

(** What a driver adds to the one loop, {!drive}.  [before steps] runs
    at the top of each iteration, before delayed wakeups and due timers
    are delivered.  [pick ()] is asked only while some thread is runnable
    ({!Machine.runnable_count}) and returns the thread to step, or a
    negative number for an idle step.
    [after tid ~cost ~steps] sees each step taken, its cycle cost and the
    step count so far, and may end the run with a verdict.  At rest with
    nothing pending, [waiting ()] asks for one more idle step. *)
type hooks = {
  before : int -> unit;
  pick : unit -> Threads_util.Tid.t;
  after : Threads_util.Tid.t -> cost:int -> steps:int -> verdict option;
  waiting : unit -> bool;
}

(** [drive ~max_steps hooks m] steps [m] until it is at rest, [hooks]
    ends the run, or [max_steps] steps are taken ([Step_limit]).  Each
    iteration: [before], then {!Machine.flush_delayed} and
    {!Machine.fire_due_timers}; with nothing runnable, jump the machine
    clock to {!Machine.next_due}, else idle if [waiting ()], else end
    with {!at_rest}; otherwise step what [pick] chooses.  A clock jump
    and an idle step each count as a step.

    Every driver ({!run}, {!Timed.run}, the fault engine) is this loop
    plus a [hooks] record, so timers fire by one rule under every cost
    model: a deadline is on the machine clock ({!Machine.total_cycles},
    which {!Machine.Probe.now} reads when the timer is armed) and fires
    once that clock reaches it, whichever processor steps next. *)
val drive : max_steps:int -> hooks -> Machine.t -> report

(** [run ?max_steps ?certify ~strategy build] creates a machine, passes
    it to [build] (which spawns root threads via {!Machine.spawn_root}),
    then {!drive}s it, picking threads with [strategy], until completion,
    deadlock or [max_steps] (default 1_000_000).  [strategy] is the
    run's only source of schedule: a strategy that draws carries its
    own seed ({!Sched.random}).

    With [~certify:true] (default [false]) the driver asks
    {!certificate} after each step, and a run whose future is a spin
    forever ends early in [Livelock].  A run that is not certified is
    step- and cycle-identical to one without [certify].

    If a thread fails with an unexpected exception the failure is recorded
    in the machine ({!Machine.failures}) and the run continues — tests
    decide how strict to be. *)
val run :
  ?max_steps:int ->
  ?certify:bool ->
  strategy:Sched.t ->
  (Machine.t -> unit) ->
  report
