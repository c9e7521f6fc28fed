(** Mutexes and binary semaphores, as implemented on the Firefly (paper,
    Implementation): a pair (Lock-bit, Queue).  "The implementation of
    semaphores is identical to mutexes: P is the same as Acquire and V is
    the same as Release" — so both are this one type, and the kind is
    fixed by the constructor ({!create} or {!semaphore}).

    The user-space fast path is the in-line code the paper credits with the
    5-instruction uncontended LOCK clause: Acquire is one test-and-set
    (plus a Nub call if the bit was set); Release clears the bit and calls
    the Nub only if the queue is non-empty (observed through the [waiters]
    word maintained under the spin-lock).

    The Nub slow path follows the paper exactly: enqueue the caller,
    re-test the bit, deschedule if still held, otherwise dequeue and retry
    the whole Acquire from the test-and-set.  AlertP and TimedP are P with
    a cancellable sleep.

    The implementation does not record which thread holds the mutex — the
    paper points this out as a place where the specification (Mutex =
    Thread) abstracts away from the representation.  Only the
    instrumentation tells the kinds apart: a mutex's winning test-and-set
    starts a "held" span and marks the lock held for the race analyzers; a
    semaphore has no holder, since V need not come from the thread that
    did the P.

    The {e interfaces} stay distinct: {!Sync_intf.SYNC} keeps [mutex] and
    [semaphore] as separate abstract types, with no precondition on V and
    no textual link between P and V.  Clients relying only on the
    specified properties of the two types would keep working even if the
    implementations diverged — the paper's point about insulation. *)

type t

(** [create pkg] — a mutex: allocates the lock bit and waiter count. *)
val create : Pkg.t -> t

(** [semaphore pkg] — a binary semaphore, initially available. *)
val semaphore : Pkg.t -> t

(** The identity used in trace events (the lock-bit address). *)
val id : t -> int

(** Acquire(m): emits the Acquire event at the successful test-and-set. *)
val acquire : t -> unit

(** Release(m): emits the Release event atomically with the bit clear.
    REQUIRES m = SELF is the caller's obligation (the implementation
    cannot check it — it does not know the holder). *)
val release : t -> unit

(** [with_lock m f] is the LOCK m DO f() END sugar: Acquire, then f,
    with Release guaranteed on both normal and exceptional exit. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** {1 Semaphore operations} *)

val p : t -> unit
val v : t -> unit

(** TimedP: like {!p} but gives up after [timeout] simulated cycles.
    Raises {!Sync_intf.Timed_out} with the semaphore untouched; a V racing
    with the expiry is donated to the next queued waiter, never lost.

    @raise Sync_intf.Timed_out when the timeout expires first. *)
val timed_p : t -> timeout:int -> unit

(** AlertP: the RETURNS/RAISES choice when both guards hold is
    schedule-dependent, as the specification permits.

    @raise Sync_intf.Alerted when the thread is alerted rather than
    acquiring the semaphore. *)
val alert_p : t -> unit

(** {1 Internal entry points for the condition-variable implementation}

    Wait's unlock/relock must not emit Acquire/Release events — their
    visible effects belong to Wait's own Enqueue/Resume actions. *)

(** [lock_internal m ~event] — acquire, running [event ()] (which emits
    the caller's action, if any) atomically with the winning
    test-and-set. *)
val lock_internal : t -> event:(unit -> unit) -> unit

(** [unlock_internal m ~event] — release, running [event ()] atomically
    with the bit clear. *)
val unlock_internal : t -> event:(unit -> unit) -> unit
