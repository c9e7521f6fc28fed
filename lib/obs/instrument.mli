(** Zero-simulation-cost instruments for the Firefly simulator.

    A registry of named counters, cycle-valued histograms, high-water
    gauges, and begin/end spans keyed by (track, name) — a track is a
    simulated thread.  None of the recording entry points perform machine
    effects, so instrumenting a workload never perturbs the schedule, the
    cycle accounting, or the RNG: a run with probes is cycle-identical to
    the same run without.

    Everything here is deterministic under a fixed simulator seed;
    {!snapshot} sorts every table so two identical runs produce equal
    snapshots. *)

type span = {
  track : int;  (** simulated thread id *)
  name : string;  (** e.g. ["held mutex#2"] *)
  cat : string;  (** Chrome-trace category, e.g. ["mutex"] *)
  t0 : int;  (** begin, simulated cycles *)
  t1 : int;  (** end, simulated cycles *)
}

type t

val create : unit -> t

(** [incr t name n] — add [n] to counter [name] (creating it at 0 first,
    so [incr t name 0] materializes the counter). *)
val incr : t -> string -> int -> unit

(** [sample t name v] — record one histogram sample (a cycle count). *)
val sample : t -> string -> int -> unit

(** [gauge_max t name v] — raise gauge [name] to [v] if higher. *)
val gauge_max : t -> string -> int -> unit

(** [span_begin t ~track ?cat name ~now] opens span [(track, name)];
    re-opening an already-open key restarts it. *)
val span_begin : t -> track:int -> ?cat:string -> string -> now:int -> unit

(** [span_end t ~track name ~now] closes the span and returns its duration
    in cycles; [None] if no matching begin. *)
val span_end : t -> track:int -> string -> now:int -> int option

(** [span_add] records an already-delimited span. *)
val span_add : t -> track:int -> ?cat:string -> string -> t0:int -> t1:int -> unit

val open_span_count : t -> int

(** [record reg m] folds the statistics of [m] ({!Firefly.Machine.K_stat})
    into [reg], each on its thread's track; subscribe before [m] runs.
    A run nobody instruments records no statistic. *)
val record : t -> Firefly.Machine.t -> unit

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * Threads_util.Stats.summary) list;
      (** sorted by name *)
  spans : span list;
      (** completed spans, sorted by (t0, track); open spans are dropped *)
}

val snapshot : t -> snapshot
