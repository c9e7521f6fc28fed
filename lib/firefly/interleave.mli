(** Instruction-granularity interleaving driver.

    Steps one runnable thread at a time under a {!Sched} strategy.  This is
    the correctness driver: it models threads running at arbitrary relative
    speeds, which is exactly the "programmer can reason as if there were as
    many processors as threads" stance the paper takes. *)

type verdict =
  | Completed  (** every thread finished *)
  | Deadlock of Threads_util.Tid.t list  (** the blocked threads *)
  | Step_limit  (** the bound was hit with runnable threads remaining *)
  | Livelock of {
      spinner : Threads_util.Tid.t;  (** the thread whose step certified *)
      word : int;  (** the spin-lock word it spins on *)
      holder : Threads_util.Tid.t;  (** that word's owner, never picked *)
      at_step : int;  (** steps taken when the certificate held *)
    }
      (** certified under [~certify:true]: the run can only spin from
          here on, see {!run} *)

type report = {
  verdict : verdict;
  steps : int;
  machine : Machine.t;  (** for trace/counter inspection *)
}

(** [at_rest m] is the verdict of a machine with no runnable thread:
    [Deadlock (Machine.blocked m)] while a thread is live, else
    [Completed]. *)
val at_rest : Machine.t -> verdict

(** [run ?max_steps ?certify ?strategy build] creates a machine, passes
    it to [build] (which spawns root threads via {!Machine.spawn_root}),
    then steps until completion, deadlock or [max_steps] (default
    1_000_000).

    With [~certify:true] (default [false]) a run whose future is a spin
    forever ends early in [Livelock].  After each step by a thread in a
    declared spin ({!Machine.Probe.spin_on}) the driver certifies when
    no timer is armed, no delayed wakeup is pending, and every thread in
    {!Sched.candidates} spins on a word that is still 1 and whose known
    owner is not a candidate.  Then no step can change the runnable set,
    the strategy never picks the owner, and every remaining step is a
    failed TAS: the same run without [certify] ends in [Step_limit].
    The witness names the thread that just stepped, its word, the word's
    owner and the step count.  Certifying reads state host-side only, so
    a run that is not certified is step- and cycle-identical to one
    without [certify].

    If a thread fails with an unexpected exception the failure is recorded
    in the machine ({!Machine.failures}) and the run continues — tests
    decide how strict to be. *)
val run :
  ?max_steps:int ->
  ?certify:bool ->
  ?strategy:Sched.t ->
  ?seed:int ->
  ?cost:Cost.t ->
  (Machine.t -> unit) ->
  report

(** [run_main ?max_steps ?strategy ?seed body] — convenience wrapper
    spawning a single root thread running [body]. *)
val run_main :
  ?max_steps:int ->
  ?strategy:Sched.t ->
  ?seed:int ->
  ?cost:Cost.t ->
  (unit -> unit) ->
  report
