(** Exhaustive schedule exploration by replay.

    Continuations are one-shot, so the machine cannot be forked; instead
    the program is re-run from scratch under each schedule prefix (the
    standard replay technique of systematic concurrency testers).  The
    state space is a tree of scheduling choices; [explore] walks it depth
    first up to a depth bound.

    Complexity is exponential in program length — use it on the small
    scenarios of the model-checking experiments (2-4 threads, a handful of
    synchronization operations each). *)

type outcome = {
  verdict : Interleave.verdict;
  machine : Machine.t;
  schedule : Threads_util.Tid.t list;  (** the choices that produced it *)
}

type stats = {
  terminal_runs : int;  (** schedules explored to completion/deadlock *)
  truncated_runs : int;  (** schedules cut off by the depth bound *)
  total_steps : int;  (** instructions executed across all replays *)
}

(** [explore ?max_depth ?max_runs ~build check] re-runs [build] under
    every schedule (up to the bounds), calling [check outcome] on each
    terminal or truncated run.  If [check] returns [Some err] exploration
    stops early and the error is returned with the stats.

    Choice points with a single enabled thread do not branch. *)
val explore :
  ?max_depth:int ->
  ?max_runs:int ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  (string option * stats)

(** [explore_all] is {!explore} without the early stop: it traverses the
    whole tree and returns the sorted set of distinct violation strings,
    plus [false] iff the [max_runs] budget was exhausted first.  This is
    the reference answer DPOR is compared against. *)
val explore_all :
  ?max_depth:int ->
  ?max_runs:int ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  string list * stats * bool

(** Statistics of a {!explore_dpor} search. *)
type dpor_stats = {
  executions : int;  (** maximal (terminal or truncated) replays run *)
  sleep_blocked : int;  (** branches pruned by sleep sets *)
  dpor_truncated : int;  (** executions cut off by the depth bound *)
  dpor_steps : int;  (** instructions executed across all replays *)
  peak_depth : int;  (** deepest exploration path reached (deterministic) *)
  complete : bool;  (** false iff the [max_runs] budget was exhausted *)
}

val dpor_stats_zero : dpor_stats
val dpor_stats_add : dpor_stats -> dpor_stats -> dpor_stats

(** [explore_dpor ?max_depth ?max_runs ?prefix ~build check] — dynamic
    partial-order reduction (Flanagan & Godefroid) with sleep sets.
    Dependence between steps is computed from the machine's recorded
    footprints (the {!Machine.Ev_touch} stream), which cover memory words,
    scheduling causality and [Probe.touch]-declared package state, so
    pruned interleavings are genuinely equivalent to explored ones.

    Unlike {!explore} the search runs to completion and returns the
    {e set} of distinct violation strings produced by [check] (sorted,
    deduplicated) — identical however the space is traversed or split.
    [check] should therefore return a canonical description free of
    schedule-dependent detail.  [prefix] freezes the first steps of every
    execution (used by {!explore_dpor_parallel}); backtrack points inside
    the frozen region are discarded.

    [?progress] is a host-side observation hook called after every
    maximal execution with the cumulative statistics so far (including
    the peak path depth).  It feeds nothing back into the search —
    instrumented explorations are schedule-identical — and the caller
    is expected to throttle it (see [Threads_telemetry.Progress]). *)
val explore_dpor :
  ?max_depth:int ->
  ?max_runs:int ->
  ?prefix:Threads_util.Tid.t list ->
  ?progress:(dpor_stats -> unit) ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  string list * dpor_stats

(** [explore_dpor_parallel ?split_branches ?jobs ...] splits the schedule
    tree exhaustively at the first [split_branches] branch points (default
    2) and runs an independent {!explore_dpor} under each frozen prefix,
    distributed over [jobs] domains by the work-stealing run-matrix
    executor.  The split happens regardless of [jobs], so the returned
    violation set and statistics are byte-identical for any worker count.
    Each per-prefix search gets its own [max_runs] budget.

    [?progress] receives advisory fleet-wide cumulative counters
    (aggregated across the concurrent per-prefix searches; the
    [dpor_truncated] field of snapshots is not aggregated and reads 0).
    [?telemetry] attaches a {!Threads_runner.Telemetry.sink} to the
    prefix matrix.  Neither affects the returned results. *)
val explore_dpor_parallel :
  ?max_depth:int ->
  ?max_runs:int ->
  ?split_branches:int ->
  ?jobs:int ->
  ?progress:(dpor_stats -> unit) ->
  ?telemetry:Threads_runner.Telemetry.sink ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  string list * dpor_stats

(** [explore_bounded ?max_preemptions ...] — delay-bounded systematic
    search in the style of CHESS (Musuvathi & Qadeer): the baseline
    scheduler is non-preemptive (a thread runs until it blocks), switching
    freely only at natural blocking points, plus at most [max_preemptions]
    involuntary switches anywhere.  Most synchronization bugs need one or
    two preemptions, so this polynomial space finds them where exhaustive
    interleaving search drowns; it is the engine behind experiment E5's
    minimal stranding schedule.  In [outcome], [schedule] holds only the
    choice-point decisions, not every step. *)
val explore_bounded :
  ?max_preemptions:int ->
  ?max_depth:int ->
  ?max_runs:int ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  (string option * stats)
