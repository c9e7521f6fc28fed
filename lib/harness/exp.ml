type t = { id : string; title : string; claim : string; run : unit -> unit }

(* Append an observability section — the machine's instrument registry
   rendered as tables — to an experiment's output.  Experiments that run
   one machine per data point pass a representative machine. *)
let print_metrics ?(header = "--- observability (representative run) ---")
    machine =
  Printf.printf "\n%s\n" header;
  Obs.Report.print (Obs.Instrument.snapshot (Firefly.Machine.obs machine))
