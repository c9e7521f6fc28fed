(** Table-rendered metrics report over an instrument snapshot: derived
    per-object fast-path rates, raw counters, high-water gauges, cycle
    histograms (with {!Threads_util.Stats} percentiles), and a span
    aggregate.  Output is deterministic: every section is sorted by
    name, so equal snapshots render byte-identically. *)

val render : Instrument.snapshot -> string

(** The same report as a schema-versioned JSON object (schema_version 1):
    fast-path rates, counters, gauges, histogram summaries and span
    aggregates — for [--format=json] consumers. *)
val to_json : Instrument.snapshot -> Json.t
