(** Per-worker fleet statistics for the run-matrix executor.

    A collector turns the {!Threads_runner.Telemetry} event stream into
    per-domain counters (cells executed, throttle spins, busy wall
    time, in-flight window high-water) plus a coalesced busy timeline
    per worker.  Observation is host-side only: attaching a
    collector never changes a matrix's results, so final reports stay
    byte-identical at any [--jobs].

    Determinism contract: counter {e totals} across the fleet are
    deterministic for a given matrix (total cells = matrix size); the
    attribution of cells to workers and all wall-clock figures are
    host- and schedule-dependent. *)

type t

(** [create ~jobs ~cells ()] — a collector for a matrix of [cells]
    cells run by [jobs] workers.  [?now] injects a clock for tests
    (defaults to [Unix.gettimeofday]). *)
val create :
  ?label:string -> ?now:(unit -> float) -> jobs:int -> cells:int -> unit ->
  t

val label : t -> string

(** The sink to pass as [?telemetry] to {!Threads_runner.Matrix}
    functions.  Callbacks are safe under the runner's concurrency
    contract (per-worker events arrive from one domain each). *)
val sink : t -> Threads_runner.Telemetry.sink

(** Wall-clock seconds of the last cell completed by [worker] — used by
    {!Progress} for straggler detection. *)
val last_cell_s : t -> worker:int -> float

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

val worker_to_json : worker_stats -> Obs.Json.t
val to_json : report -> Obs.Json.t

(** Chrome trace-event JSON (load in [chrome://tracing] / Perfetto),
    written by {!Obs.Chrome_trace}: worker-occupancy timeline, one track
    per domain, one B/E pair per coalesced busy segment, whole
    microseconds relative to collector creation. *)
val chrome : report -> Obs.Json.t
