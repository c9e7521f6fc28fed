(** An experiment.

    The paper has no numbered tables or figures; its evaluation is a set of
    precise claims.  Each experiment here regenerates one claim (see
    EXPERIMENTS.md for the mapping) and prints one or more tables;
    {!Registry} lists them. *)

type t = {
  id : string;  (** "E1" ... "E10" *)
  title : string;
  claim : string;  (** the paper sentence being reproduced *)
  run : unit -> unit;
}

(** [print_metrics ?header reg] appends an instrument registry as an
    observability section — fast-path rates, counters, gauges, cycle
    histograms, span aggregates, as {!Obs.Report.render} prints its
    snapshot — to the experiment's output.  The experiment fills [reg]
    by subscribing it ({!Obs.Instrument.record}) to the machine of its
    representative run. *)
val print_metrics : ?header:string -> Obs.Instrument.t -> unit
