let trace sink m =
  Machine.subscribe m Machine.K_spec (function
    | Machine.Ev_spec ev -> Spec_trace.Sink.emit sink ev
    | _ -> ())

let instrument reg m =
  let module I = Obs.Instrument in
  Machine.subscribe m Machine.K_stat (function
    | Machine.Ev_stat { tid = track; t = now; stat } -> (
      match stat with
      | Machine.St_count (name, n) -> I.incr reg name n
      | Machine.St_sample (name, v) -> I.sample reg name v
      | Machine.St_gauge (name, v) -> I.gauge_max reg name v
      | Machine.St_begin (cat, name) -> I.span_begin reg ~track ~cat name ~now
      | Machine.St_end (name, sample) -> (
        match (I.span_end reg ~track name ~now, sample) with
        | Some d, Some hist -> I.sample reg hist d
        | _ -> ())
      | Machine.St_span (cat, name, t0, t1) ->
        I.span_add reg ~track ~cat name ~t0 ~t1)
    | _ -> ())
