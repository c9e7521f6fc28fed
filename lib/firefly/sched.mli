(** Scheduling strategies for the interleaving driver.

    A strategy picks the next thread to step from the runnable set.  All
    strategies are deterministic functions of their construction arguments,
    so every run is reproducible. *)

type t

(** [random seed] — uniform choice among runnable threads. *)
val random : int -> t

(** [round_robin ()] — cycles through runnable threads in tid order. *)
val round_robin : unit -> t

(** [prefer_interrupts inner] — wraps [inner]: whenever an
    interrupt-context thread is runnable, pick it (the hardware preempts). *)
val prefer_interrupts : t -> t

(** [choose ?among strategy machine] picks from the machine's runnable
    threads that [among] accepts (default: all), by index in ascending tid
    order: [random] makes the choice [List.nth] would make over
    {!Machine.runnable} with the same [Rng.int] draw, allocating nothing.
    Returns -1 when [among] rejects every runnable thread.  Requires a
    runnable thread. *)
val choose :
  ?among:(Threads_util.Tid.t -> bool) -> t -> Machine.t -> Threads_util.Tid.t

(** [interrupts_only strategy machine] — true when [strategy] can pick,
    now or at any later step while the runnable set stays what it is,
    only the runnable interrupt-context threads (under
    [prefer_interrupts], while one is runnable); otherwise any runnable
    thread, whatever the strategy's state.  A livelock certificate
    reasons about exactly these threads.  Asking does not advance it. *)
val interrupts_only : t -> Machine.t -> bool
