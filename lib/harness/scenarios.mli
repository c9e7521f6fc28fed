(** Model-checking scenarios shared by experiments and tests.

    Each scenario is a {!Threads_model.Program.t}: a set of straight-line
    thread programs over named spec objects plus an invariant over
    explored states.  The interesting ones reproduce the paper's
    incidents (E7) and the stress shapes used by E4–E6. *)

(** [mutex_contention n] — [n] threads each Acquire then Release one
    mutex; the invariant is mutual exclusion over the critical regions. *)
val mutex_contention : int -> Threads_model.Program.t

(** [wait_signal n] — [n] waiters and one broadcaster; deadlock is
    allowed (the spec has no liveness), the invariant checks only waiter
    threads ever appear in [c]. *)
val wait_signal : int -> Threads_model.Program.t

(** Incident 1 (E7a): dropping the [m = NIL] guard on AlertResume's
    RAISES case lets an alerted waiter seize a held mutex. *)
val alert_wait_mutual_exclusion : unit -> Threads_model.Program.t

(** Incident 3 (E7c): Nelson's bug — UNCHANGED [c] on the Alerted case
    leaves the departed thread stranded in [c]. *)
val nelson : unit -> Threads_model.Program.t

(** P/V ping-pong over one semaphore, no holder notion. *)
val semaphore_pingpong : unit -> Threads_model.Program.t

(** The scenarios [check-spec]'s whole-program pass analyzes. *)
val progcheck_catalogue : unit -> Threads_model.Program.t list
