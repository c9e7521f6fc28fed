(** [trace sink m] subscribes [sink] to the spec actions of [m]
    ({!Machine.K_spec}); subscribe before [m] runs.  Drivers create the
    machine, so callers do it in the build function they pass them. *)
val trace : Spec_trace.Sink.t -> Machine.t -> unit

(** [instrument reg m] folds the statistics of [m] ({!Machine.K_stat})
    into [reg], each on its thread's track; subscribe before [m] runs.
    A run nobody instruments records no statistic. *)
val instrument : Obs.Instrument.t -> Machine.t -> unit
