(** Domain-parallel run-matrix executor.

    The verification pipeline is matrices of deterministic, independent
    runs: conformance sweeps (backend × workload × seed), chaos sweeps
    (plan × seed), analysis passes, DPOR frontier prefixes.  This module
    fans a matrix out over OCaml 5 domains: workers claim cells with a
    fetch-and-add on one shared cursor, and the calling domain consumes
    the results in cell-index order, so every report is byte-identical
    whatever the worker count.

    Isolation contract: the cell function must confine mutable state to
    the cell (fresh machine, fresh {!Threads_util.Rng.cell} instance) —
    everything [lib/firefly] and the backends allocate per run already
    qualifies.  Probe state is domain-local in the machine, so cells on
    different domains cannot observe each other. *)

(** [resolve_jobs j] maps the CLI convention to a worker count:
    [j <= 0] means "auto" ([Domain.recommended_domain_count]), otherwise
    [j]. *)
val resolve_jobs : int -> int

(** Host-side observation points for the executor.

    The runner itself stays clock-free: it only announces events (cell
    started, cell finished, producer throttled, …) and a sink — see
    [Obs.Fleet] — timestamps and aggregates them.  Observation is
    strictly host-side: a sink never changes which cells run, in what
    order results are keyed, or anything the simulated machines can
    see, so instrumented runs produce byte-identical reports. *)
module Telemetry : sig
  type sink = {
    cell_start : worker:int -> cell:int -> unit;
        (** Worker [worker] begins executing cell [cell]. *)
    cell_done : worker:int -> cell:int -> unit;
        (** Worker [worker] finished cell [cell] (Ok or Error alike). *)
    idle_spin : worker:int -> unit;
        (** One producer throttle spin (the in-flight window is full). *)
    in_flight : count:int -> unit;
        (** Produced-but-unconsumed results after a production, for the
            window high-water mark. *)
  }

  (** A sink that ignores every event. *)
  val null : sink
end

module Matrix : sig
  (** [iter_ordered ~jobs ~n ~f ~consume ()] computes [f i] for every
      cell and calls [consume i (f i)] for [i = 0, 1, ..., n-1] {e in
      index order, on the calling domain}.

      [jobs = 1] (the default) runs each cell and consumes it at once,
      on the calling domain with no domain spawned.  [jobs > 1] spawns
      [jobs - 1] domains; with the caller as worker 0 they claim cells
      in ascending order from one shared cursor.  Producers throttle
      against the consumer, so at most a bounded window of results is
      in flight; a throttled caller consumes instead of waiting.  This
      is the streaming primitive for million-run chaos matrices: render
      each run eagerly, consume it into the report, and let the machine
      behind it be collected.

      If any cell raises, the cells before it are consumed and the
      exception of the lowest-indexed failing cell is re-raised on the
      caller after all workers stop, as the sequential path would.

      [?telemetry] attaches a host-side observation sink (defaults to
      none, at zero cost); what [consume] sees is identical with or
      without it, at any [jobs]. *)
  val iter_ordered :
    ?telemetry:Telemetry.sink -> ?jobs:int -> n:int -> f:(int -> 'a) ->
    consume:(int -> 'a -> unit) -> unit -> unit

  (** [map ~jobs ~n f] computes [|f 0; ...; f (n-1)|]: {!iter_ordered}
      consuming into an array. *)
  val map :
    ?telemetry:Telemetry.sink -> ?jobs:int -> n:int -> (int -> 'a) ->
    'a array
end
