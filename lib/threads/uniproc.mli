(** The single-process co-routine implementation of the Threads interface
    (the paper's "other implementation", which "runs within any single
    process on a normal Unix system").

    No spin-lock, no test-and-set, no eventcount: each visible atomic
    action commits in one simulator instruction (a {!Firefly.Machine.Ops.mem_emit}
    thunk manipulating plain OCaml state), because a co-routine system has
    no true concurrency to protect against.  Blocking threads deschedule;
    wakers ready them, relying on the machine's wakeup-waiting switch for
    the one racy window (a wake arriving between a thread's decision to
    sleep and its deschedule instruction).

    Because it implements the same {!Sync_intf.SYNC} signature and emits
    the same trace events, the conformance checker validates it against the
    same specification — the paper's point that the spec insulates clients
    from a complete change of implementation technique.  One observable
    difference survives abstraction: this Signal never unblocks more than
    one thread, which the specification's weak postcondition also allows. *)

type sync = (module Sync_intf.SYNC with type thread = Threads_util.Tid.t)

(** [make ()] builds a fresh backend instance (thread context). *)
val make : unit -> sync

(** [build body machine] — spawn the root thread, which runs [body] over
    a fresh backend instance, on an existing machine (for
    {!Firefly.Explore}); mirrors {!Api.build}. *)
val build : (sync -> unit) -> Firefly.Machine.t -> unit

(** [run body] — drive [body] over a fresh machine with the interleaving
    driver, round-robin like a co-routine scheduler, so no seed enters. *)
val run : (sync -> unit) -> Firefly.Interleave.report
