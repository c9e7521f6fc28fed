let trace sink m =
  Machine.subscribe m Machine.K_spec (function
    | Machine.Ev_spec ev -> Spec_trace.Sink.emit sink ev
    | _ -> ())
