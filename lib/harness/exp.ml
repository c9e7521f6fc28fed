type t = { id : string; title : string; claim : string; run : unit -> unit }

(* Append an observability section — an instrument registry rendered as
   tables — to an experiment's output.  Experiments that run one machine
   per data point subscribe the registry to a representative one. *)
let print_metrics ?(header = "--- observability (representative run) ---")
    reg =
  Printf.printf "\n%s\n" header;
  print_string (Obs.Report.render (Obs.Instrument.snapshot reg))
