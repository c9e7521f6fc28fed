(** The fleet collector for the run-matrix executor.

    A collector turns the {!Threads_runner.Telemetry} event stream into
    per-domain counters (cells executed, throttle spins, busy wall
    time, in-flight window high-water) plus a coalesced busy timeline
    per worker.  Given a destination, it also streams one JSON object
    per line as the matrix runs: [start], [phase] (a named sub-matrix
    begins), [heartbeat] (throughput and ETA, at most every 0.5 s),
    [straggler] (a cell far above the running mean), [explore] (DPOR
    frontier ticks, throttled like heartbeats) and [done] (with
    per-worker counters).

    Observation is host-side only and the stream never touches stdout:
    attaching a collector never changes a matrix's results, so final
    reports stay byte-identical at any [--jobs].

    Determinism contract: counter {e totals} across the fleet are
    deterministic for a given matrix (total cells = matrix size); the
    attribution of cells to workers and all wall-clock figures are
    host- and schedule-dependent. *)

type dest =
  | Stderr
  | File of string  (** Truncates/creates; one flushed line per event. *)
  | Custom of (string -> unit)  (** Receives whole lines (tests). *)

type t

(** [create ~label ~jobs ~cells ()] — a collector for a matrix of
    [cells] cells run by [jobs] workers.  [cells = 0] means "unknown"
    (heartbeats carry no ETA).  With [?dest] it emits the [start] event;
    without, it counts and emits nothing.  [?now] injects a clock for
    tests (defaults to [Unix.gettimeofday]). *)
val create :
  ?now:(unit -> float) -> ?dest:dest -> label:string -> jobs:int ->
  cells:int -> unit -> t

(** The sink to pass as [?telemetry] to {!Threads_runner.Matrix}
    functions.  Per-worker records are written only from that worker's
    domain; the stream's state is mutex-serialized, so the sink is safe
    under the runner's concurrency contract. *)
val sink : t -> Threads_runner.Telemetry.sink

(** Announce a named sub-matrix (e.g. one workload of a conform sweep). *)
val phase : t -> string -> cells:int -> unit

(** Progress tick for schedule exploration, throttled like heartbeats.
    Counters are cumulative across the whole explore run. *)
val explore_tick :
  t -> scenario:string -> executions:int -> sleep_blocked:int ->
  peak_depth:int -> unit

(** Emit the [done] event (with per-worker counters) and close the
    destination.  Idempotent. *)
val finish : t -> unit

type worker_stats = {
  ws_id : int;
  ws_cells : int;
  ws_idle_spins : int;
  ws_busy_s : float;
  ws_max_cell_s : float;
  ws_segments : (float * float) list;
      (** Coalesced busy intervals, oldest first, seconds relative to
          collector creation. *)
  ws_dropped_segments : int;
      (** Segments beyond the per-worker cap (counted, not recorded). *)
}

type report = {
  r_label : string;
  r_jobs : int;
  r_expected : int;  (** Matrix size passed at creation. *)
  r_elapsed_s : float;
  r_inflight_hw : int;
  r_workers : worker_stats list;
}

(** Take a snapshot.  Call after the matrix has returned (workers
    joined); reading while workers still run is racy. *)
val snapshot : t -> report

(** Sum of cells over all workers — equals the matrix size once the
    matrix has completed, whatever [jobs]. *)
val total_cells : report -> int

(** Fixed-width utilization table (one row per worker plus totals).
    Structure is deterministic; timing columns are host-dependent. *)
val render : report -> string

(** Chrome trace-event JSON (load in [chrome://tracing] / Perfetto),
    written by {!Chrome_trace}: worker-occupancy timeline, one track
    per domain, one B/E pair per coalesced busy segment, whole
    microseconds relative to collector creation. *)
val chrome : report -> Json.t
