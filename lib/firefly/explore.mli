(** Exhaustive schedule exploration by replay.

    Continuations are one-shot, so the machine cannot be forked; instead
    the program is re-run from scratch under each schedule prefix (the
    standard replay technique of systematic concurrency testers), and
    each run's machine is disposed of ({!Machine.dispose}) once [check]
    has seen it.  The state space is a tree of scheduling choices.

    Complexity is exponential in program length — use it on the small
    scenarios of the model-checking experiments (2-4 threads, a handful of
    synchronization operations each). *)

type outcome = { verdict : Interleave.verdict; machine : Machine.t }

(** Statistics of a search, plain or DPOR. *)
type stats = {
  executions : int;  (** runs ended: terminal, truncated or all asleep *)
  sleep_blocked : int;  (** branches pruned by sleep sets (0 without DPOR) *)
  dpor_truncated : int;  (** executions cut off by the depth bound *)
  dpor_steps : int;  (** scheduler steps, replayed prefixes included *)
  peak_depth : int;  (** deepest exploration path reached (deterministic) *)
  complete : bool;
      (** false iff the [max_runs] budget or [stop_at_first] ended the
          search before the whole tree was explored *)
}

type dpor_stats = stats

val dpor_stats_zero : stats
val dpor_stats_add : stats -> stats -> stats

(** [explore ?max_preemptions ?stop_at_first ?max_depth ?max_runs ~build
    check] re-runs [build] under every schedule, calling [check outcome]
    on each maximal execution (terminal, or cut off at [max_depth] steps
    with verdict [Step_limit]).  It returns the sorted set of distinct
    violation strings [check] produced, and the statistics.

    A branch point offers every runnable thread, the thread that ran last
    first; a step with a single runnable thread does not branch.  With
    [max_preemptions] (default: unbounded) the search is delay-bounded in
    the style of CHESS (Musuvathi & Qadeer): once that many switches away
    from a still-runnable thread are spent, that thread runs on until it
    blocks or finishes.  Most synchronization bugs need one or two
    preemptions, so this polynomial space finds them where exhaustive
    search drowns; it is the engine behind experiment E5's stranding
    schedule.  Unbounded, the search is plain exhaustive DFS, the ground
    truth DPOR is checked against.

    [stop_at_first] (default [false]) ends the search at the first
    violation, which is then the only one returned.  [max_runs] (default
    200 000) bounds the number of maximal executions.  [complete] in the
    result is false if either ended the search early. *)
val explore :
  ?max_preemptions:int ->
  ?stop_at_first:bool ->
  ?max_depth:int ->
  ?max_runs:int ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  string list * stats

(** [explore_dpor_parallel ?max_depth ?max_runs ?split_branches ?jobs
    ~build check] — dynamic partial-order reduction (Flanagan & Godefroid)
    with sleep sets.  Dependence between steps is computed from the
    machine's recorded footprints (the {!Machine.Ev_touch} stream), which
    cover memory words, scheduling causality and [Probe.touch]-declared
    package state, so pruned interleavings are genuinely equivalent to
    explored ones.

    The search runs to completion (or to [max_runs] maximal executions,
    default 1 000 000) and returns the set of distinct violation strings
    produced by [check] (sorted, deduplicated) — identical however the
    space is traversed or split.  [check] should therefore return a
    canonical description free of schedule-dependent detail.

    The schedule tree is split at the first [split_branches] branch
    points (default 2; [0] runs one unsplit search) as sequential DPOR
    would split it if it back-tracked there over every enabled thread:
    siblings in ascending thread order, each with the usual sleep set
    (inherited sleepers plus earlier siblings, minus those whose step
    conflicts with the one taken, forced steps included).  A DPOR search
    runs under each frozen prefix from its sleep set on entry, over
    [jobs] domains.  Backtrack points inside a frozen prefix are
    discarded: the split covers every alternative there.  The split
    happens regardless of [jobs], so the violation set and statistics
    are byte-identical for any worker count.  The split and each
    per-prefix search get their own [max_runs] budget.

    [?progress] is a host-side observation hook called after every
    maximal execution with advisory fleet-wide cumulative counters
    (aggregated across the concurrent per-prefix searches; the
    [dpor_truncated] field of snapshots reads 0).  [?telemetry] attaches
    a {!Threads_runner.Telemetry.sink} to the prefix matrix.  Neither
    feeds back into the search nor affects the returned results. *)
val explore_dpor_parallel :
  ?max_depth:int ->
  ?max_runs:int ->
  ?split_branches:int ->
  ?jobs:int ->
  ?progress:(stats -> unit) ->
  ?telemetry:Threads_runner.Telemetry.sink ->
  build:(Machine.t -> unit) ->
  (outcome -> string option) ->
  string list * stats
