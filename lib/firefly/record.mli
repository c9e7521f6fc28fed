(** [trace sink m] subscribes [sink] to the spec actions of [m]
    ({!Machine.K_spec}); subscribe before [m] runs.  Drivers create the
    machine, so callers do it in the build function they pass them. *)
val trace : Spec_trace.Sink.t -> Machine.t -> unit
