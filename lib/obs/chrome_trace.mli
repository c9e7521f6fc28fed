(** Chrome trace-event exporter.

    Converts an instrument {!Instrument.snapshot} into the JSON object
    format accepted by Perfetto and chrome://tracing: one track per
    simulated thread, a "B"/"E" duration-event pair per completed span,
    plus process/thread-name metadata events, all under pid 1.  Timestamps are
    [cycles * cycle_us] microseconds (pass the simulator's
    [Firefly.Cost.us_per_cycle] for real-time scaling; the default 1.0
    shows raw cycles as microseconds). *)

(** The raw event list (metadata first, then per-track span pairs). *)
val events :
  ?cycle_us:float ->
  ?process_name:string ->
  ?thread_names:(int * string) list ->
  Instrument.snapshot ->
  Json.t list

(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] *)
val to_json :
  ?cycle_us:float ->
  ?process_name:string ->
  ?thread_names:(int * string) list ->
  Instrument.snapshot ->
  Json.t

val to_string :
  ?cycle_us:float ->
  ?process_name:string ->
  ?thread_names:(int * string) list ->
  Instrument.snapshot ->
  string
