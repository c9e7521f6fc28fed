(** Chrome trace-event exporter.

    Converts a list of completed spans into the JSON object format
    accepted by Perfetto and chrome://tracing: one track per span
    [track], a "B"/"E" duration-event pair per span, plus
    process/thread-name metadata events, all under pid 1.  Timestamps
    are [t * cycle_us] microseconds (pass the simulator's
    [Firefly.Cost.us_per_cycle] for real-time scaling; the default 1.0
    shows raw cycles as microseconds).  Spans on one track must be
    sequential or properly nested; their order in the list breaks ties
    between equal intervals. *)

(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]: metadata first
    (the process, then one name per track, [t<track>] unless
    [thread_names] names it), then each track's span pairs. *)
val to_json :
  ?cycle_us:float ->
  process_name:string ->
  ?thread_names:(int * string) list ->
  Instrument.span list ->
  Json.t
