(* Plumbing shared by the repro subcommands: name lookups, report output,
   the flags every report command takes, and fleet telemetry. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload

(* ---- name lookups ---- *)

(* [lookup ~what ?all ~names find name] is [find name]'s value, or [all]
   for the name "all".  An unknown name lists [names] (and "all" when
   [all] is given) on stderr and exits 1. *)
let lookup ~what ?all ~names find name =
  match (all, find name) with
  | Some all, _ when name = "all" -> all
  | _, Some x -> x
  | _, None ->
    Printf.eprintf "unknown %s %s; available: %s%s\n" what name
      (String.concat ", " names)
      (if Option.is_some all then ", all" else "");
    exit 1

(* [find] for a lookup whose [all] is a list: one name, one element. *)
let one find name = Option.map (fun x -> [ x ]) (find name)

let backend name = lookup ~what:"backend" ~names:(Bk.names ()) Bk.find name
let workload name = lookup ~what:"workload" ~names:(Wl.names ()) Wl.find name

let workloads name =
  lookup ~what:"workload" ~all:Wl.all ~names:(Wl.names ()) (one Wl.find) name

let variant name =
  let variants = Spec_core.Threads_interface.variants in
  lookup ~what:"variant" ~names:(List.map fst variants)
    (fun v -> List.assoc_opt v variants)
    name

(* ---- report output and files ---- *)

let open_or_exit path =
  try open_out path
  with Sys_error e ->
    Printf.eprintf "cannot write %s: %s\n" path e;
    exit 1

(* Streaming --out plumbing: [emit] appends a chunk of the report,
   [finish] closes the file and prints the "wrote" line.  With OUT "-"
   chunks go straight to stdout. *)
let make_emit out =
  if out = "-" then (print_string, ignore)
  else begin
    let oc = open_or_exit out in
    let written = ref 0 in
    ( (fun s ->
        written := !written + String.length s;
        output_string oc s),
      fun () ->
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" out !written )
  end

(* Write a whole report [s] to FILE, or stdout when FILE is "-". *)
let write_out ~out s =
  let emit, finish = make_emit out in
  emit s;
  finish ()

(* Side files announce themselves on stderr: stdout carries only the
   report, so telemetered runs stay byte-identical to untelemetered
   ones. *)
let write_side_file path s =
  let oc = open_or_exit path in
  output_string oc s;
  close_out oc;
  Printf.eprintf "wrote %s (%d bytes)\n" path (String.length s)

(* The contents of [path]; [fail] gets the reason it cannot be read. *)
let read_file ~fail path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> fail e

(* ---- flags shared by every report-rendering subcommand ---- *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"$(docv) is $(b,table) (human-readable) or $(b,json)")

let out_arg =
  Arg.(
    value & opt string "-"
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv) instead of stdout")

let workloads_arg =
  Arg.(
    value & opt string "all"
    & info [ "workload" ] ~docv:"W" ~doc:"Workload name, or $(b,all)")

(* Shared converters for count options (seeds, runs, plans, budgets,
   jobs): a value below the floor gets cmdliner's diagnostic and exit 124
   instead of reaching Array.init or a report header.  [count] admits 0
   where it means something (all cores, no requirement); [positive]
   guards matrix sizes, where 0 would pass having checked nothing. *)
let count_from lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error
        (`Msg
          (Printf.sprintf "invalid value '%s', expected a count >= %d" s lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let count = count_from 0
let positive = count_from 1

(* Shared --jobs flag, resolved to a worker count: 0 means "ask the
   runtime", 1 (the default) stays sequential, N > 1 spreads the run
   matrix over N domains.  Reports are byte-identical whatever the
   value. *)
let jobs_arg =
  Term.map Threads_runner.resolve_jobs
    Arg.(
      value & opt count 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the run matrix ($(b,0) = one per available \
             core).  Results are merged in deterministic order, so output \
             does not depend on $(docv)")

(* ---- fleet observability flags (--progress / --fleet / --fleet-trace) ---- *)

type fleet_opts = {
  fo_progress : string option;
  fo_fleet : string option;
  fo_trace : string option;
}

let progress_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "progress" ] ~docv:"FILE"
        ~doc:
          "Stream JSON-lines progress events (start, phase, heartbeat with \
           throughput and ETA, straggler flags, per-worker fleet counters) \
           to $(docv) while the matrix runs, or to stderr when $(docv) is \
           omitted.  The final report stays byte-identical")

let fleet_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "fleet" ] ~docv:"FILE"
        ~doc:
          "After the run, write the per-worker fleet utilization table \
           (cells executed, throttle spins, busy time, in-flight \
           high-water) to $(docv)")

let fleet_trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "fleet-trace" ] ~docv:"FILE"
        ~doc:
          "After the run, write a Chrome trace-event worker-occupancy \
           timeline (one track per worker domain) to $(docv), for \
           Perfetto / chrome://tracing")

let fleet_term =
  Term.(
    const (fun p f t -> { fo_progress = p; fo_fleet = f; fo_trace = t })
    $ progress_arg $ fleet_file_arg $ fleet_trace_arg)

let fleet_requested o =
  o.fo_progress <> None || o.fo_fleet <> None || o.fo_trace <> None

(* What [with_fleet] hands a command: the sink to pass as [?telemetry],
   [phase] to announce a named sub-matrix, and the collector itself (for
   explore's frontier ticks).  Without a telemetry flag they are [None],
   a no-op and [None]. *)
type fleet = {
  telemetry : Threads_runner.Telemetry.sink option;
  phase : string -> cells:int -> unit;
  collector : Obs.Fleet.t option;
}

(* Observability plumbing around a matrix-shaped command.  [total] is
   the number of matrix cells the command will run (0 = unknown, no
   ETA).  Everything lands on stderr or the named side files, never
   stdout. *)
let with_fleet ~label ~jobs ~total opts k =
  if not (fleet_requested opts) then
    k { telemetry = None; phase = (fun _ ~cells:_ -> ()); collector = None }
  else begin
    let dest =
      Option.map
        (fun p -> if p = "-" then Obs.Fleet.Stderr else Obs.Fleet.File p)
        opts.fo_progress
    in
    let c = Obs.Fleet.create ?dest ~label ~jobs ~cells:total () in
    let finally () =
      Obs.Fleet.finish c;
      let rep = Obs.Fleet.snapshot c in
      Option.iter
        (fun f -> write_side_file f (Obs.Fleet.render rep))
        opts.fo_fleet;
      Option.iter
        (fun f ->
          write_side_file f (Obs.Json.to_string (Obs.Fleet.chrome rep) ^ "\n"))
        opts.fo_trace
    in
    Fun.protect ~finally (fun () ->
        k
          {
            telemetry = Some (Obs.Fleet.sink c);
            phase = Obs.Fleet.phase c;
            collector = Some c;
          })
  end
