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

(** [replay prefix fallback] follows the recorded tid choices in [prefix],
    then defers to [fallback].  Used by the exhaustive explorer. *)
val replay : Threads_util.Tid.t list -> t -> t

(** [choose strategy machine runnable] picks from a non-empty list. *)
val choose : t -> Machine.t -> Threads_util.Tid.t list -> Threads_util.Tid.t

(** [candidates strategy machine runnable] — every thread [strategy] can
    pick, now or at any later step, while the runnable set stays
    [runnable].  It may over-approximate but never leave out a thread
    [choose] could return, whatever the strategy's internal state
    (random draws, round-robin position, replay prefix): a livelock
    certificate reasons about exactly these threads.  [random],
    [round_robin] and [replay] return [runnable]; [prefer_interrupts]
    returns the runnable interrupt threads when there are any.  Calling
    it does not advance the strategy. *)
val candidates :
  t -> Machine.t -> Threads_util.Tid.t list -> Threads_util.Tid.t list
