(** Causal profiler facade: fold a run's causal edges into a profile
    and render it.

    All renderings are deterministic for a fixed seed: tables sort by
    (cycles, name), folded stacks sort lexicographically, and the
    underlying profile stream is host-side bookkeeping — a profiled run
    is cycle- and schedule-identical to an unprofiled one. *)

type t = {
  makespan : int;  (** total simulated cycles of the run *)
  event_count : int;
  timeline : Timeline.t;
  critpath : Critpath.t;
  waitfor : Waitfor.t;
  name_of : int -> string;  (** object id -> display name *)
}

(** The profile fold: subscribed to a machine's {!Firefly.Machine.K_prof}
    stream with [record] before the run, it numbers edges by [pr_seq] and
    merges abutting run segments of a thread.  [of_run r m] profiles the
    run [r] recorded on [m]. *)
type recorder

val recorder : unit -> recorder
val record : recorder -> Firefly.Machine.t -> unit
val of_run : recorder -> Firefly.Machine.t -> t

(** Deterministic table report: critical path, per-object attribution,
    top blockers, wait decomposition, wait-for forensics. *)
val render : t -> string

(** Folded-stack flamegraph ("thread;state[;object] cycles", one line
    per stack) — the format flamegraph.pl and speedscope ingest. *)
val folded : t -> string

(** Chrome trace-event JSON: one track per thread colored by state,
    plus a dedicated critical-path track. *)
val chrome : t -> Json.t

(** Structured report (schema_version 1) for scripts and CI. *)
val to_json : t -> Json.t
