(** The rejected design: condition variables represented by a binary
    semaphore (paper, Implementation): Wait(m, c) = Release(m); P(c);
    Acquire(m) and Signal(c) = V(c).

    The single bit covers the wakeup-waiting race for Signal, but — as the
    paper explains — "this implementation does not generalize to
    Broadcast": arbitrarily many threads can sit in the race window at the
    semicolon between Release(m) and P(c), and the one available/unavailable
    bit cannot tell them all to resume.  Our Broadcast does the best it can
    (one V per registered waiter), yet consecutive Vs coalesce on the
    binary semaphore and threads are left stranded.  Experiment E5 counts
    them; the exhaustive explorer exhibits a minimal stranding schedule.

    This module is a baseline for experiments, not part of the supported
    interface; it emits the P/V events of the semaphore it really uses. *)

type t

val create : Pkg.t -> t
val wait : t -> Mutex.t -> unit
val signal : t -> unit

(** Best-effort broadcast: one V per waiter registered at entry. *)
val broadcast : t -> unit
