(** Streaming JSON-lines progress events for long-running matrices.

    Wraps a {!Fleet} collector and emits one JSON object per line as
    the matrix runs: [start], [phase] (a named sub-matrix begins),
    [heartbeat] (throughput + ETA, throttled to [interval]),
    [straggler] (a cell far above the running mean), [explore] (DPOR
    frontier ticks) and [done] (with per-worker fleet counters).

    The stream never touches stdout, so final reports are byte-identical
    with or without progress enabled.  Callbacks are mutex-serialized,
    so the sink is safe to share across worker domains. *)

type dest =
  | Stderr
  | File of string  (** Truncates/creates; one flushed line per event. *)
  | Custom of (string -> unit)  (** Receives whole lines (tests). *)

type t

(** [create ~label ~total ~jobs ()] starts a progress stream and emits
    the [start] event.  [total = 0] means "unknown" (heartbeats carry
    no ETA).  [?dest = None] collects fleet stats but emits nothing.
    [?now] injects a clock for tests; [?interval] (seconds, default
    0.5) throttles heartbeat and explore events. *)
val create :
  ?now:(unit -> float) -> ?interval:float -> ?dest:dest -> label:string ->
  total:int -> jobs:int -> unit -> t

(** Snapshot of the underlying collector (see {!Fleet.snapshot}). *)
val fleet_report : t -> Fleet.report


(** Announce a named sub-matrix (e.g. one workload of a conform sweep). *)
val phase : t -> string -> cells:int -> unit

(** The sink to pass as [?telemetry]: fleet collection plus progress
    events on each completed cell. *)
val sink : t -> Threads_runner.Telemetry.sink

(** Progress tick for schedule exploration, throttled like heartbeats.
    Counters are cumulative across the whole explore run. *)
val explore_tick :
  t -> scenario:string -> executions:int -> sleep_blocked:int ->
  peak_depth:int -> unit

(** Emit the [done] event (with per-worker counters) and close the
    destination.  Idempotent. *)
val finish : t -> unit
