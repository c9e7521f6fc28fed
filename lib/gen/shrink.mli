(** Deterministic greedy minimization of a failing scenario.

    Given a (program, seed, plan) triple whose run fails with some
    {!Oracle.kind}, repeatedly try strictly-simpler candidates — drop a
    worker, drop an op, narrow a lock set, halve a magnitude, drop the
    fault plan or one of its actions — re-running each candidate and
    accepting the first that still fails {e with the same kind}.  The
    candidate order is a pure function of the scenario, and each
    accepted candidate strictly decreases the measure
    [(size, weight, plan-present)], so the result is a unique,
    locally-minimal counterexample: byte-identical for equal inputs,
    independent of how the surrounding campaign was parallelized. *)

type step = {
  st_size : int;  (** accepted candidate's op count *)
  st_weight : int;  (** accepted candidate's secondary weight *)
  st_action : string;  (** which transformation was accepted *)
}

(** [minimize backend scenario kind] — requires that running [scenario]
    on [backend] fails with [kind] (the caller just observed it).
    Returns the minimal scenario and the accepted-step trail (for
    transcripts and the monotonicity tests).

    For the liveness kinds (Stranded, Exhausted) candidates are also run
    on the [sim] backend and accepted only if it completes them — so the minimum is a genuine divergence
    witness, not a program that shrinking made deadlock everywhere. *)
val minimize :
  Threads_backend.Backend.t ->
  Oracle.scenario ->
  Oracle.kind ->
  Oracle.scenario * step list
