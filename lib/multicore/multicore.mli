(** The Threads package on real parallel hardware: OCaml 5 domains,
    [Atomic] words, and the same two-layer structure as the Firefly code.

    - Mutex/Semaphore: an atomic lock bit with an in-line test-and-set fast
      path; contended paths enter the "Nub" (the global spin-lock) to queue
      and park, re-testing the bit exactly as the paper's Nub subroutine
      does.
    - Condition: an atomic eventcount plus a queue; Wait reads the count,
      releases the mutex, and Block compares the count under the spin-lock
      — the wakeup-waiting race is closed the same way as on the Firefly.
    - Alerting: a pending set under the spin-lock with cancellation of
      alertable sleeps.

    This backend implements {!Taos_threads.Sync_intf.SYNC}, so every
    example and workload in the repository also runs with true parallelism.

    With a trace sink installed (see {!traced_run}) every visible atomic
    action additionally appends one {!Spec_trace} event, emitted under the
    nub spin-lock at the instant the action commits — so the sink's order
    is a legal linearization of the run and the trace replays against the
    formal specification with the same checker the simulator uses.
    The same trace is all that lock-order analysis reads
    ([Threads_analysis.Analysis.run_backend]): each thread's Acquire,
    Release, Wait's Enqueue and Resume events in program order.
    An untraced, uncontended operation allocates nothing and never takes
    the nub: Acquire, P and AlertP load the sink and test-and-set the bit;
    Release and V load the sink, clear the bit and load the waiter count;
    Signal and Broadcast with no waiter load the sink and the interest.

    [fork] spawns a domain; keep thread counts near the core count. *)

type thread

(** Equal to {!Taos_threads.Sync_intf.Alerted}. *)
exception Alerted

(** The SYNC instance.  Global (one package per process), matching the
    Threads package being one per address space. *)
module Sync : Taos_threads.Sync_intf.SYNC with type thread = thread

(** The package state (nub lock, alert tables, trace sink) is global,
    so [run]/[traced_run] serialize on a package mutex:
    overlapping calls from different domains — e.g. parallel run-matrix
    cells — queue up rather than corrupt each other (a concurrent reset
    would wipe another run's pending alerts mid-wait).  The body inside
    occupies every core anyway, so serializing costs no parallelism. *)

(** [run body] — run [body] on the main thread with the package
    initialized; joins nothing implicitly. *)
val run : (unit -> 'a) -> 'a

(** [traced_run body] — clear residual alert state, install a fresh sink,
    run [body], uninstall the sink (even on exception) and return the
    result with the linearized event trace. *)
val traced_run : (unit -> 'a) -> 'a * Spec_trace.event list

(** Clear leftover pending alerts and cancellations from a previous run
    (thread ids are never reused, so this is hygiene, not correctness —
    except for the main thread, whose id persists across runs). *)
val reset : unit -> unit
