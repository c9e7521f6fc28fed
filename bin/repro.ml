(* repro — regenerate the paper's evaluation claims.

   repro list            enumerate experiments
   repro run E1 E7       run specific experiments
   repro all             run everything
   repro spec [--variant v]   print a spec variant (concrete syntax)
   repro trace [--seed n] [--format=text|chrome] [--out=FILE]
                         linearized trace + conformance check, or
                         Chrome trace-event JSON of the demo workload
   repro metrics [--seed n]   per-object observability report *)

open Cmdliner

let setup () = Threads_harness.Registry.init ()

(* Shared deterministic demo workload for [metrics] and the Chrome-trace
   export: a producer feeding three consumers through a mutex+condition
   (fast path, Nub slow path, wakeup-waiting window), a single-token
   semaphore ping-pong pair, and two alert victims (one in Alert Wait, one
   in Alert P).  Everything is driven by the seeded simulator scheduler,
   so the same seed gives byte-identical metrics. *)
let demo_workload sync =
  let module S =
    (val sync : Taos_threads.Sync_intf.SYNC with type thread = Threads_util.Tid.t)
  in
  let module Ops = Firefly.Machine.Ops in
  let m = S.mutex () in
  let c = S.condition () in
  let queue = ref 0 in
  let produced = ref 0 in
  let items = 40 in
  let consumer () =
    let continue = ref true in
    while !continue do
      S.with_lock m (fun () ->
          while !queue = 0 && !produced < items do
            S.wait m c
          done;
          if !queue > 0 then begin
            decr queue;
            Ops.tick 3
          end
          else continue := false)
    done
  in
  let producer () =
    for _ = 1 to items do
      Ops.tick 5;
      S.with_lock m (fun () ->
          incr queue;
          incr produced);
      S.signal c
    done;
    (* Final state is published; wake anyone still parked so they exit. *)
    S.broadcast c
  in
  (* Single-token ping-pong: drain [b]'s initial token so exactly one
     token circulates a -> b -> a and the V's never collapse. *)
  let a = S.semaphore () in
  let b = S.semaphore () in
  S.p b;
  let rounds = 12 in
  let pinger =
    S.fork (fun () ->
        for _ = 1 to rounds do
          S.p a;
          Ops.tick 2;
          S.v b
        done)
  in
  let ponger =
    S.fork (fun () ->
        for _ = 1 to rounds do
          S.p b;
          Ops.tick 2;
          S.v a
        done)
  in
  (* Alert victims: one parked in Alert Wait on its own condition, one in
     Alert P on a drained semaphore; both exit via the Alerted exception. *)
  let ac = S.condition () in
  let am = S.mutex () in
  let wait_victim =
    S.fork (fun () ->
        try S.with_lock am (fun () -> S.alert_wait am ac)
        with Taos_threads.Sync_intf.Alerted -> ())
  in
  let dead = S.semaphore () in
  S.p dead;
  let p_victim =
    S.fork (fun () ->
        try S.alert_p dead with Taos_threads.Sync_intf.Alerted -> ())
  in
  let consumers = List.init 3 (fun _ -> S.fork consumer) in
  let pr = S.fork producer in
  S.alert wait_victim;
  S.alert p_victim;
  ignore (S.test_alert ());
  S.join pr;
  List.iter S.join consumers;
  S.join wait_victim;
  S.join p_victim;
  S.join pinger;
  S.join ponger

let demo_snapshot ~seed =
  let report = Taos_threads.Api.run ~seed demo_workload in
  Obs.Instrument.snapshot
    (Firefly.Machine.obs report.Firefly.Interleave.machine)

let thread_names (snap : Obs.Instrument.snapshot) =
  List.sort_uniq compare
    (List.map (fun (s : Obs.Instrument.span) -> s.track) snap.spans)
  |> List.map (fun track -> (track, Printf.sprintf "t%d" track))

(* Write [s] to FILE, or stdout when FILE is "-". *)
let write_out ~out s =
  if out = "-" then print_string s
  else begin
    let oc =
      try open_out out
      with Sys_error e ->
        Printf.eprintf "cannot write %s: %s\n" out e;
        exit 1
    in
    output_string oc s;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" out (String.length s)
  end

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

(* Shared --jobs flag: 0 means "ask the runtime", 1 (the default) stays
   sequential, N > 1 spreads the run matrix over N domains.  Reports are
   byte-identical whatever the value. *)
let jobs_arg =
  Arg.(
    value & opt count 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the run matrix ($(b,0) = one per available \
           core).  Results are merged in deterministic order, so output \
           does not depend on $(docv)")

(* Streaming --out plumbing: [emit] appends a chunk of the report,
   [finish] closes the file and prints the "wrote" line.  With OUT "-"
   chunks go straight to stdout, unless [buffer_stdout] delays them to
   [finish] (for commands that interleave progress lines with report
   chunks). *)
let make_emit ?(buffer_stdout = false) out =
  if out = "-" then
    if buffer_stdout then begin
      let buf = Buffer.create 4096 in
      (Buffer.add_string buf, fun () -> print_string (Buffer.contents buf))
    end
    else ((fun s -> print_string s), fun () -> ())
  else begin
    let oc =
      try open_out out
      with Sys_error e ->
        Printf.eprintf "cannot write %s: %s\n" out e;
        exit 1
    in
    let written = ref 0 in
    ( (fun s ->
        written := !written + String.length s;
        output_string oc s),
      fun () ->
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" out !written )
  end

(* ---- fleet observability flags (--progress / --fleet / --fleet-trace) ---- *)

module Tel = Threads_telemetry

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
           (cells executed, steals won/failed, idle spins, busy time, \
           in-flight high-water) to $(docv)")

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

(* Side files announce themselves on stderr: stdout carries only the
   report, so telemetered runs stay byte-identical to untelemetered
   ones. *)
let write_side_file path s =
  (try
     let oc = open_out path in
     output_string oc s;
     close_out oc
   with Sys_error e ->
     Printf.eprintf "cannot write %s: %s\n" path e;
     exit 1);
  Printf.eprintf "wrote %s (%d bytes)\n" path (String.length s)

(* Observability plumbing around a matrix-shaped command.  [total] is
   the number of matrix cells the command will run (0 = unknown, no
   ETA).  [k] receives the progress handle (None when no telemetry flag
   was given) and threads [Tel.Progress.sink] into the runner via the
   commands' [?telemetry] parameters.  Everything lands on stderr or
   the named side files, never stdout. *)
let with_fleet ~label ~jobs ~total opts k =
  if opts.fo_progress = None && opts.fo_fleet = None && opts.fo_trace = None
  then k None
  else begin
    let dest =
      Option.map
        (fun p ->
          if p = "-" then Tel.Progress.Stderr else Tel.Progress.File p)
        opts.fo_progress
    in
    let p = Tel.Progress.create ?dest ~label ~total ~jobs () in
    let finally () =
      Tel.Progress.finish p;
      let rep = Tel.Progress.fleet_report p in
      Option.iter
        (fun f -> write_side_file f (Tel.Fleet.render rep))
        opts.fo_fleet;
      Option.iter
        (fun f ->
          write_side_file f (Obs.Json.to_string (Tel.Fleet.chrome rep) ^ "\n"))
        opts.fo_trace
    in
    Fun.protect ~finally (fun () -> k (Some p))
  end

let list_cmd =
  let run () =
    setup ();
    List.iter
      (fun (e : Threads_harness.Exp.t) ->
        Printf.printf "%-4s %s\n     %s\n" e.id e.title e.claim)
      (Threads_harness.Exp.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments and the claims they reproduce")
    Term.(const run $ const ())

let run_cmd =
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    setup ();
    match Threads_harness.Exp.run_ids ids with
    | [] -> ()
    | unknown ->
      Printf.eprintf "unknown experiment id(s): %s\n"
        (String.concat ", " unknown);
      exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one or more experiments (e.g. run E1 E7)")
    Term.(const run $ ids)

let all_cmd =
  let run () =
    setup ();
    Threads_harness.Exp.run_all ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment") Term.(const run $ const ())

let spec_cmd =
  let variant =
    Arg.(value & opt string "final" & info [ "variant" ] ~docv:"VARIANT")
  in
  let run variant =
    match List.assoc_opt variant Spec_core.Threads_interface.variants with
    | Some iface -> print_string (Spec_core.Printer.to_string iface)
    | None ->
      Printf.eprintf "unknown variant %s; available: %s\n" variant
        (String.concat ", "
           (List.map fst Spec_core.Threads_interface.variants));
      exit 1
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Print a specification variant (final, missing-mutex-guard, \
          must-raise, nelson-bug) in the concrete syntax")
    Term.(const run $ variant)

let metrics_cmd =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED") in
  let run seed format out =
    let snap = demo_snapshot ~seed in
    match format with
    | `Table -> write_out ~out (Obs.Report.render snap)
    | `Json -> write_out ~out (Obs.Json.to_string (Obs.Report.to_json snap) ^ "\n")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the deterministic demo workload and print the per-object \
          observability report (fast-path rates, counters, high-water \
          gauges, cycle histograms, span aggregates); --format=json \
          --out=FILE emits the same report machine-readably")
    Term.(const run $ seed $ format_arg $ out_arg)

let trace_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED")
  in
  let variant =
    Arg.(value & opt string "final" & info [ "variant" ] ~docv:"VARIANT")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("chrome", `Chrome) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(docv) is $(b,text) (linearized event trace + conformance \
             check) or $(b,chrome) (trace-event JSON for Perfetto / \
             chrome://tracing, from the demo workload's spans)")
  in
  let chrome seed out =
    let snap = demo_snapshot ~seed in
    write_out ~out
      (Obs.Chrome_trace.to_string ~cycle_us:Firefly.Cost.us_per_cycle
         ~process_name:"firefly-sim" ~thread_names:(thread_names snap) snap)
  in
  let run seed variant format out =
    match format with
    | `Chrome -> chrome seed out
    | `Text ->
    let iface =
      match List.assoc_opt variant Spec_core.Threads_interface.variants with
      | Some i -> i
      | None ->
        Printf.eprintf "unknown variant %s\n" variant;
        exit 1
    in
    (* a workload touching every primitive *)
    let _, trace =
      Taos_threads.Api.run_traced ~seed (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC
               with type thread = Threads_util.Tid.t)
          in
          let m = S.mutex () in
          let c = S.condition () in
          let sem = S.semaphore () in
          let flag = ref false in
          let w =
            S.fork (fun () ->
                S.with_lock m (fun () ->
                    while not !flag do
                      S.wait m c
                    done))
          in
          let aw =
            S.fork (fun () ->
                try S.with_lock m (fun () -> S.alert_wait m c)
                with Taos_threads.Sync_intf.Alerted -> ())
          in
          S.p sem;
          S.alert aw;
          S.with_lock m (fun () -> flag := true);
          S.broadcast c;
          S.v sem;
          ignore (S.test_alert ());
          S.join w;
          S.join aw)
    in
    let rep = Threads_model.Conformance.check iface trace in
    write_out ~out
      (String.concat ""
         (List.mapi
            (fun i e ->
              Printf.sprintf "%3d  %s\n" i (Spec_trace.event_to_string e))
            trace)
      ^ Format.asprintf "---@.%a@." Threads_model.Conformance.pp_report rep);
    if not (Threads_model.Conformance.ok rep) then exit 2
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a demo workload on the simulator and print its linearized \
          trace with a conformance check (--format=text), or export the \
          instrumentation spans as Chrome trace-event JSON \
          (--format=chrome --out=FILE)")
    Term.(const run $ seed $ variant $ format $ out_arg)

(* ---- cross-backend conformance / differential testing ---- *)

module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck
module Runner = Threads_runner

let resolve_jobs = Runner.resolve_jobs

let resolve_workloads name =
  if name = "all" then Wl.all
  else
    match Wl.find name with
    | Some w -> [ w ]
    | None ->
      Printf.eprintf "unknown workload %s; available: %s, all\n" name
        (String.concat ", " (Wl.names ()));
      exit 1

let pp_verdicts vs =
  String.concat ", "
    (List.map (fun (v, n) -> Printf.sprintf "%dx %s" n v) vs)

let pp_observables = function
  | [] -> "-"
  | obs -> String.concat " / " obs

let summary_row (s : Cc.summary) =
  if s.skipped then
    [ s.backend.Bk.name; "skipped"; "-"; "-"; "-" ]
  else
    [
      s.backend.Bk.name;
      pp_verdicts (Cc.verdicts s);
      pp_observables (Cc.observables s);
      Threads_util.Table.cell_int (Cc.events s);
      Threads_util.Table.cell_int (Cc.violations s);
    ]

let conform_cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to check (sim, uniproc, naive, hoare, multicore)")
  in
  let workload =
    Arg.(value & opt string "all" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name, or $(b,all)")
  in
  let seeds =
    Arg.(value & opt positive 5 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per workload")
  in
  let run backend workload seeds out jobs fleet =
    let jobs = resolve_jobs jobs in
    let b =
      match Bk.find backend with
      | Some b -> b
      | None ->
        Printf.eprintf "unknown backend %s; available: %s\n" backend
          (String.concat ", " (Bk.names ()));
        exit 1
    in
    let wls = resolve_workloads workload in
    let total =
      seeds * List.length (List.filter (fun wl -> Bk.supports b wl) wls)
    in
    let emit, finish = make_emit out in
    let failed = ref false in
    with_fleet ~label:("conform " ^ b.Bk.name) ~jobs ~total fleet
      (fun prog ->
        let telemetry = Option.map Tel.Progress.sink prog in
        List.iter
          (fun (wl : Wl.t) ->
            Option.iter
              (fun p ->
                Tel.Progress.phase p wl.Wl.name
                  ~cells:(if Bk.supports b wl then seeds else 0))
              prog;
            let s = Cc.conform ?telemetry ~jobs b wl ~seeds in
            if s.Cc.skipped then
              emit
                (Printf.sprintf
                   "%-10s skipped (backend lacks a required feature)\n"
                   wl.name)
            else begin
              emit
                (Printf.sprintf
                   "%-10s %d seeds | %s | observable: %s | %d events, %d \
                    violations\n"
                   wl.name seeds
                   (pp_verdicts (Cc.verdicts s))
                   (pp_observables (Cc.observables s))
                   (Cc.events s) (Cc.violations s));
              (match Cc.first_error s with
              | Some e when not b.Bk.conforming ->
                emit
                  (Printf.sprintf
                     "           (expected divergence) first: %s\n" e)
              | Some e ->
                emit (Printf.sprintf "           FIRST VIOLATION: %s\n" e)
              | None -> ());
              if b.Bk.conforming && not (Cc.ok s) then failed := true
            end)
          wls);
    if !failed then
      emit
        (Printf.sprintf "FAIL: %s claims conformance but diverged\n"
           b.Bk.name);
    finish ();
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Run backend-generic workloads on one backend, replay its \
          linearization-point trace against the formal specification, and \
          report violations (non-zero exit if a conforming backend \
          diverges)")
    Term.(
      const run $ backend $ workload $ seeds $ out_arg $ jobs_arg
      $ fleet_term)

let diff_cmd =
  let workload =
    Arg.(value & opt string "all" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name, or $(b,all)")
  in
  let seeds =
    Arg.(value & opt positive 3 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per backend")
  in
  let run workload seeds out jobs fleet =
    let jobs = resolve_jobs jobs in
    let wls = resolve_workloads workload in
    let total =
      List.fold_left
        (fun acc wl ->
          acc
          + seeds
            * List.length (List.filter (fun b -> Bk.supports b wl) Bk.all))
        0 wls
    in
    let emit, finish = make_emit out in
    let failed = ref false in
    with_fleet ~label:"diff" ~jobs ~total fleet (fun prog ->
        let telemetry = Option.map Tel.Progress.sink prog in
        List.iter
          (fun (wl : Wl.t) ->
            Option.iter
              (fun p ->
                Tel.Progress.phase p wl.Wl.name
                  ~cells:
                    (seeds
                    * List.length
                        (List.filter (fun b -> Bk.supports b wl) Bk.all)))
              prog;
            let summaries = Cc.diff ?telemetry ~jobs wl ~seeds in
            let t =
              Threads_util.Table.create
                ~title:
                  (Printf.sprintf "diff: %s (%s; %d seeds per backend)"
                     wl.name wl.description seeds)
                [ "backend"; "verdicts"; "observable"; "events"; "violations" ]
            in
            List.iter
              (fun s -> Threads_util.Table.add_row t (summary_row s))
              summaries;
            emit (Threads_util.Table.render t);
            List.iter
              (fun (s : Cc.summary) ->
                if s.backend.Bk.conforming && not s.skipped && not (Cc.ok s)
                then begin
                  failed := true;
                  emit
                    (Printf.sprintf "FAIL: %s diverged on %s%s\n"
                       s.backend.Bk.name wl.name
                       (match Cc.first_error s with
                       | Some e -> ": " ^ e
                       | None -> ""))
                end)
              summaries;
            emit "\n")
          wls);
    emit
      "Expected divergence: naive deadlocks the broadcast workload (E5: \
       coalescing Vs strand waiters); hoare completes but accrues one \
       Resume violation per effective signal (E8: signal hands the mutex \
       over, so Resume's WHEN m = NIL fails).\n";
    finish ();
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Run one workload on every registered backend and compare \
          verdicts, observables and spec-conformance side by side; the \
          deliberately-broken baselines must diverge exactly where E5/E8 \
          predict (non-zero exit if a conforming backend diverges)")
    Term.(const run $ workload $ seeds $ out_arg $ jobs_arg $ fleet_term)

(* ---- chaos conformance: fault injection x spec conformance ---- *)

let chaos_cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Chaos-capable backend (sim, uniproc)")
  in
  let workload =
    Arg.(value & opt string "all" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name, or $(b,all)")
  in
  let plans =
    Arg.(value & opt positive Threads_fault.Plan.families
         & info [ "plans" ] ~docv:"N"
             ~doc:"Number of fault plans (ids 0..N-1; 7 cycles every family)")
  in
  let seeds =
    Arg.(value & opt positive 3 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per plan")
  in
  let run backend workload plans seeds out jobs fleet =
    let jobs = resolve_jobs jobs in
    let b =
      match Bk.find backend with
      | Some b -> b
      | None ->
        Printf.eprintf "unknown backend %s; available: %s\n" backend
          (String.concat ", " (Bk.names ()));
        exit 1
    in
    if b.Bk.chaos = None then begin
      Printf.eprintf "backend %s has no chaos driver (chaos-capable: %s)\n"
        b.Bk.name
        (String.concat ", "
           (List.filter_map
              (fun (b : Bk.t) ->
                if b.Bk.chaos <> None then Some b.Bk.name else None)
              Bk.all));
      exit 1
    end;
    let failed = ref false in
    (* Stream the report: each run is rendered and dropped as its turn
       comes, so memory stays flat however large the matrix is.  With
       --out=FILE chunks go straight to the file; on stdout they are
       buffered so the progress lines keep printing first, like before. *)
    let emit, finish = make_emit ~buffer_stdout:true out in
    let wls = resolve_workloads workload in
    let total =
      plans * seeds
      * List.length (List.filter (fun wl -> Bk.supports b wl) wls)
    in
    with_fleet ~label:("chaos " ^ b.Bk.name) ~jobs ~total fleet
      (fun prog ->
        let telemetry = Option.map Tel.Progress.sink prog in
        List.iter
          (fun (wl : Wl.t) ->
            Option.iter
              (fun p ->
                Tel.Progress.phase p wl.Wl.name
                  ~cells:(if Bk.supports b wl then plans * seeds else 0))
              prog;
            let t = Cc.chaos_stream ?telemetry ~jobs ~emit b wl ~plans ~seeds in
            if t.Cc.ct_skipped then
              Printf.printf
                "%-10s skipped (backend lacks a required feature)\n" wl.name
            else begin
              Printf.printf "%-10s %d plans x %d seeds | %s\n" wl.name plans
                seeds
                (String.concat ", "
                   (List.map
                      (fun (k, n) -> Printf.sprintf "%dx %s" n k)
                      t.Cc.ct_classes));
              if not (Cc.chaos_totals_ok t) then begin
                failed := true;
                List.iter
                  (fun (plan, seed, cls) ->
                    Printf.printf "           FAIL %s plan#%d seed=%d\n"
                      (Cc.class_name cls) plan seed)
                  t.Cc.ct_failures
              end
            end)
          wls);
    finish ();
    if !failed then begin
      Printf.printf
        "FAIL: %s left a run unexplained or in violation under injection\n"
        b.Bk.name;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay deterministic fault plans (delayed/dropped wakeups, \
          spurious wakeups, alert storms, stalls, crash-stops, contention \
          bursts) against a backend while checking its trace against the \
          formal specification.  Every run must either complete conformant \
          or terminate with a diagnosed fault report naming the injected \
          fault — never a silent hang or a spec violation (non-zero exit \
          otherwise).  Equal (backend, workload, plan, seed) produce \
          byte-identical reports")
    Term.(
      const run $ backend $ workload $ plans $ seeds $ out_arg $ jobs_arg
      $ fleet_term)

(* ---- systematic schedule exploration: DPOR vs exhaustive DFS ---- *)

module Ex = Firefly.Explore
module Sc = Threads_harness.Explore_scenarios

let explore_cmd =
  let scenario =
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"S"
           ~doc:"Scenario name, or $(b,all); see the list on error")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("dpor", `Dpor); ("dfs", `Dfs); ("both", `Both) ]) `Dpor
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,dpor) (sleep-set dynamic partial-order reduction), \
             $(b,dfs) (plain exhaustive search) or $(b,both) (run both \
             and compare their violation sets)")
  in
  let max_runs =
    Arg.(value & opt count 1_000_000 & info [ "max-runs" ] ~docv:"N"
           ~doc:"Execution budget per search (per frozen prefix for DPOR)")
  in
  let min_prune =
    Arg.(value & opt (some float) None & info [ "min-prune" ] ~docv:"PCT"
           ~doc:
             "With --mode=both: fail unless DPOR explores at least \
              $(docv)% fewer executions than DFS")
  in
  let run scenario mode max_runs min_prune format out jobs fleet =
    let jobs = resolve_jobs jobs in
    (* Branch depth of the exhaustive frontier split handed to the DPOR
       workers; independent of --jobs, so the results are too. *)
    let split = 2 in
    let scenarios =
      if scenario = "all" then Sc.all
      else
        match Sc.find scenario with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "unknown scenario %s; available: %s, all\n" scenario
            (String.concat ", "
               (List.map (fun (s : Sc.t) -> s.Sc.name) Sc.all));
          exit 1
    in
    let failed = ref false in
    let fail fmt = Printf.ksprintf (fun m -> failed := true;
        Printf.printf "FAIL: %s\n" m) fmt
    in
    let t =
      Threads_util.Table.create
        ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right;
                  Threads_util.Table.Right; Threads_util.Table.Right;
                  Threads_util.Table.Right; Threads_util.Table.Left ]
        ~title:
          (Printf.sprintf "explore: %d worker domain(s), frontier split at \
                           %d branch(es)" jobs split)
        [ "scenario"; "dfs execs"; "dpor execs"; "sleep-pruned"; "prune";
          "violations" ]
    in
    let records = ref [] in
    with_fleet ~label:"explore" ~jobs ~total:0 fleet (fun prog ->
    let telemetry = Option.map Tel.Progress.sink prog in
    List.iter
      (fun (s : Sc.t) ->
        Option.iter (fun p -> Tel.Progress.phase p s.Sc.name ~cells:0) prog;
        let progress =
          Option.map
            (fun p (st : Ex.dpor_stats) ->
              Tel.Progress.explore_tick p ~scenario:s.Sc.name
                ~executions:st.Ex.executions
                ~sleep_blocked:st.Ex.sleep_blocked
                ~peak_depth:st.Ex.peak_depth)
            prog
        in
        let dpor =
          if mode = `Dfs then None
          else
            Some
              (Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~max_runs
                 ~split_branches:split ~jobs ?progress ?telemetry
                 ~build:s.Sc.build s.Sc.check)
        in
        let dfs =
          if mode = `Dpor then None
          else
            Some
              (Ex.explore ~max_depth:s.Sc.max_depth ~max_runs
                 ~build:s.Sc.build s.Sc.check)
        in
        let found, complete =
          match (dpor, dfs) with
          | Some (v, st), _ | None, Some (v, st) -> (v, st.Ex.complete)
          | None, None -> assert false
        in
        let dfs_complete =
          match dfs with Some (_, st) -> st.Ex.complete | None -> true
        in
        (match dpor with
        | Some (_, ds) when not ds.Ex.complete ->
          fail "%s: DPOR exhausted its execution budget (%d)" s.Sc.name
            max_runs
        | _ -> ());
        if not dfs_complete then
          fail "%s: DFS exhausted its execution budget (%d)" s.Sc.name
            max_runs;
        (* an incomplete search proves nothing about the violation set *)
        if complete && found <> s.Sc.expect then
          fail "%s: violation set mismatch\n  found:    [%s]\n  expected: [%s]"
            s.Sc.name
            (String.concat "; " found)
            (String.concat "; " s.Sc.expect);
        (match (dpor, dfs) with
        | Some (dv, _), Some (fv, _) when dfs_complete ->
          if dv <> fv then
            fail "%s: DPOR and DFS disagree\n  dpor: [%s]\n  dfs:  [%s]"
              s.Sc.name (String.concat "; " dv) (String.concat "; " fv)
        | _ -> ());
        let execs = Option.map (fun (_, st) -> st.Ex.executions) in
        let dfs_execs = execs dfs and dpor_execs = execs dpor in
        (* Only a complete DFS counts the whole tree the ratio is over. *)
        let prune =
          match (dpor_execs, dfs_execs) with
          | Some d, Some f when f > 0 && dfs_complete ->
            Some (100. *. (1. -. (float_of_int d /. float_of_int f)))
          | _ -> None
        in
        (match (min_prune, prune) with
        | Some want, Some got when got < want ->
          fail "%s: DPOR pruned %.1f%%, below the required %.1f%%" s.Sc.name
            got want
        | Some _, None when mode <> `Both ->
          fail "%s: --min-prune needs --mode=both" s.Sc.name
        | _ -> ());
        let cell = function Some n -> string_of_int n | None -> "-" in
        Threads_util.Table.add_row t
          [ s.Sc.name; cell dfs_execs; cell dpor_execs;
            (match dpor with
            | Some (_, ds) -> string_of_int ds.Ex.sleep_blocked
            | None -> "-");
            (match prune with
            | Some p -> Printf.sprintf "%.1f%%" p
            | None -> "-");
            (if found = [] then "none"
             else String.concat " | " found) ];
        records :=
          Obs.Json.Obj
            ([ ("scenario", Obs.Json.String s.Sc.name);
               ("expected_ok", Obs.Json.Bool (complete && found = s.Sc.expect));
               ("violations",
                Obs.Json.Arr (List.map (fun v -> Obs.Json.String v) found)) ]
            @ (match dpor with
              | Some (_, ds) ->
                [ ("dpor_executions", Obs.Json.Int ds.Ex.executions);
                  ("dpor_sleep_blocked", Obs.Json.Int ds.Ex.sleep_blocked);
                  ("dpor_steps", Obs.Json.Int ds.Ex.dpor_steps);
                  ("dpor_peak_depth", Obs.Json.Int ds.Ex.peak_depth);
                  ("dpor_complete", Obs.Json.Bool ds.Ex.complete) ]
              | None -> [])
            @ (match dfs with
              | Some (_, st) ->
                [ ("dfs_executions", Obs.Json.Int st.Ex.executions);
                  ("dfs_steps", Obs.Json.Int st.Ex.dpor_steps);
                  ("dfs_complete", Obs.Json.Bool st.Ex.complete) ]
              | None -> [])
            @
            match prune with
            | Some p -> [ ("prune_pct", Obs.Json.Float p) ]
            | None -> [])
          :: !records)
      scenarios);
    (match format with
    | `Json ->
      write_out ~out
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("schema_version", Obs.Json.Int 1);
                ("jobs", Obs.Json.Int jobs);
                ("split_branches", Obs.Json.Int split);
                ("scenarios", Obs.Json.Arr (List.rev !records)) ])
        ^ "\n")
    | `Table -> write_out ~out (Threads_util.Table.render t));
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore every schedule of a small scenario — the \
          wakeup-waiting window, Alert racing Signal, E5's semaphore-encoded \
          broadcast, E8's Hoare hand-off — with sleep-set dynamic \
          partial-order reduction driven by the simulator's per-step \
          footprints, splitting the schedule tree across --jobs worker \
          domains (results are independent of the worker count).  \
          --mode=both cross-checks the DPOR violation set against plain \
          exhaustive DFS and reports the pruning ratio; non-zero exit on \
          any mismatch with the scenario's pinned expectation")
    Term.(
      const run $ scenario $ mode $ max_runs $ min_prune $ format_arg
      $ out_arg $ jobs_arg $ fleet_term)

(* ---- dynamic race / lock-order analysis and the spec linter ---- *)

module An = Threads_analysis.Analysis
module Mu = Threads_analysis.Mutants
module Lint = Threads_analysis.Lint

let report_summary_row name (r : An.report) shown =
  [
    name;
    Threads_util.Table.cell_int r.An.n_accesses;
    Threads_util.Table.cell_int r.An.n_data_words;
    Threads_util.Table.cell_int r.An.n_exempt_words;
    Threads_util.Table.cell_int (List.length r.An.lockset);
    Threads_util.Table.cell_int (List.length r.An.hb);
    (match r.An.lock_order with
    | None -> "-"
    | Some lo -> Threads_util.Table.cell_int (List.length lo.Threads_analysis.Lockorder.cycles));
    shown;
  ]

type analyzer_filter = All | Races_only | Lock_order_only

let filtered_findings filter (r : An.report) =
  let races =
    List.map (Format.asprintf "%a" Threads_analysis.Lockset.pp_race) r.An.lockset
    @ List.map (Format.asprintf "%a" Threads_analysis.Hb.pp_race) r.An.hb
  in
  let cycles =
    List.map
      (Format.asprintf "%a"
         (Threads_analysis.Lockorder.pp_cycle ~lock_name:r.An.lock_name))
      (An.cycles r)
  in
  match filter with
  | All -> races @ cycles
  | Races_only -> races
  | Lock_order_only -> cycles

let analyze_report_json name (r : An.report) extra findings =
  let open Obs.Json in
  Obj
    ([
       ("name", String name);
       ("accesses", Int r.An.n_accesses);
       ("data_words", Int r.An.n_data_words);
       ("exempt_words", Int r.An.n_exempt_words);
       ("lockset_races", Int (List.length r.An.lockset));
       ("hb_races", Int (List.length r.An.hb));
       ("lock_order_cycles", Int (List.length (An.cycles r)));
     ]
    @ extra
    @ [ ("findings", Arr (List.map (fun s -> String s) findings)) ])

let analyze_mutants filter seed ~jobs ~format ~out ~fleet =
  let scenarios = Array.of_list Mu.all in
  let reports =
    with_fleet ~label:"analyze --mutants" ~jobs ~total:(Array.length scenarios)
      fleet (fun prog ->
        let telemetry = Option.map Tel.Progress.sink prog in
        Runner.Matrix.map ?telemetry ~jobs ~n:(Array.length scenarios)
          (fun i ->
            let log = An.log () in
            An.of_run log (scenarios.(i).Mu.m_run ~seed (An.record log))))
  in
  let t =
    Threads_util.Table.create
      ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right;
                Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Left ]
      ~title:(Printf.sprintf "analyze: seeded mutants (seed %d)" seed)
      [ "scenario"; "accesses"; "data"; "exempt"; "lockset"; "hb";
        "cycles"; "expected" ]
  in
  let failures = ref [] in
  let details = ref [] in
  let records = ref [] in
  Array.iteri
    (fun i (s : Mu.scenario) ->
      let r = reports.(i) in
      let expected, caught =
        match s.Mu.m_expect with
        | Mu.Hb -> ("hb race", r.An.hb <> [] && r.An.lockset = [])
        | Mu.Lockset -> ("lockset race", r.An.lockset <> [])
        | Mu.Lock_order -> ("lock-order cycle", An.cycles r <> [])
        | Mu.Clean -> ("no findings", An.clean r)
      in
      if not caught then
        failures :=
          Printf.sprintf "%s: expected %s, got %d lockset / %d hb / %d cycles"
            s.Mu.m_name expected (List.length r.An.lockset)
            (List.length r.An.hb)
            (List.length (An.cycles r))
          :: !failures;
      details :=
        List.map (Printf.sprintf "  [%s] %s" s.Mu.m_name)
          (filtered_findings filter r)
        :: !details;
      records :=
        analyze_report_json s.Mu.m_name r
          [ ("expected", Obs.Json.String expected);
            ("caught", Obs.Json.Bool caught) ]
          (filtered_findings filter r)
        :: !records;
      Threads_util.Table.add_row t
        (report_summary_row s.Mu.m_name r
           (Printf.sprintf "%s %s" expected (if caught then "(caught)" else "(MISSED)"))))
    scenarios;
  let emit, finish = make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "dynamic");
              ("seed", Obs.Json.Int seed);
              ("scenarios", Obs.Json.Arr (List.rev !records)) ])
      ^ "\n")
  | `Table ->
    emit (Threads_util.Table.render t);
    List.iter (List.iter (fun l -> emit (l ^ "\n"))) (List.rev !details);
    if !failures = [] then
      emit "all mutants caught by their intended detector\n");
  finish ();
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
    exit 1

let analyze_backend filter backend workload seed ~jobs ~format ~out ~fleet =
  let b =
    match Bk.find backend with
    | Some b -> b
    | None ->
      Printf.eprintf "unknown backend %s; available: %s\n" backend
        (String.concat ", " (Bk.names ()));
      exit 1
  in
  (* The expensive part — running the workload and replaying its access
     stream through the analyzers — is a parallel matrix over workloads;
     rendering below stays sequential and deterministic. *)
  let wls = Array.of_list (resolve_workloads workload) in
  let analyses =
    with_fleet ~label:("analyze " ^ b.Bk.name) ~jobs
      ~total:(Array.length wls) fleet (fun prog ->
        let telemetry = Option.map Tel.Progress.sink prog in
        Runner.Matrix.map ?telemetry ~jobs ~n:(Array.length wls) (fun i ->
            if Bk.supports b wls.(i) then Some (An.run_backend b ~seed wls.(i))
            else None))
  in
  let t =
    Threads_util.Table.create
      ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right;
                Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Left ]
      ~title:
        (Printf.sprintf "analyze: backend %s (seed %d)%s" backend seed
           (if b.Bk.conforming then "" else " [non-conforming baseline]"))
      [ "workload"; "accesses"; "data"; "exempt"; "lockset"; "hb";
        "cycles"; "verdict" ]
  in
  let findings = ref [] in
  let records = ref [] in
  let skipped_record name status =
    Obs.Json.Obj
      [ ("name", Obs.Json.String name); ("status", Obs.Json.String status) ]
  in
  Array.iteri
    (fun i (wl : Wl.t) ->
      match analyses.(i) with
      | Some res -> (
        match res.An.br_report with
        | None ->
          records := skipped_record wl.Wl.name "uninstrumented" :: !records;
          Threads_util.Table.add_row t
            [ wl.Wl.name; "-"; "-"; "-"; "-"; "-"; "-"; "uninstrumented" ]
        | Some r ->
          let verdict =
            Format.asprintf "%a" Bk.pp_verdict res.An.br_outcome.Bk.verdict
          in
          findings :=
            List.map (Printf.sprintf "  [%s] %s" wl.Wl.name)
              (filtered_findings filter r)
            :: !findings;
          records :=
            analyze_report_json wl.Wl.name r
              [ ("verdict", Obs.Json.String verdict) ]
              (filtered_findings filter r)
            :: !records;
          Threads_util.Table.add_row t
            (report_summary_row wl.Wl.name r verdict))
      | None ->
        records := skipped_record wl.Wl.name "skipped" :: !records;
        Threads_util.Table.add_row t
          [ wl.Wl.name; "-"; "-"; "-"; "-"; "-"; "-"; "skipped" ])
    wls;
  let findings = List.concat (List.rev !findings) in
  let emit, finish = make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("backend", Obs.Json.String b.Bk.name);
              ("seed", Obs.Json.Int seed);
              ("workloads", Obs.Json.Arr (List.rev !records)) ])
      ^ "\n")
  | `Table ->
    emit (Threads_util.Table.render t);
    List.iter (fun l -> emit (l ^ "\n")) findings;
    if findings = [] then emit "no findings\n"
    else if not b.Bk.conforming then
      emit "(findings on a non-conforming baseline are expected divergence)\n");
  finish ();
  if findings <> [] && b.Bk.conforming then begin
    Printf.eprintf "FAIL: conforming backend %s has findings\n" b.Bk.name;
    exit 1
  end

let analyze_cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to analyze (sim, uniproc, naive, hoare, multicore)")
  in
  let workload =
    Arg.(value & opt string "all" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name, or $(b,all)")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED") in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:
             "Analyze the seeded fault-injection scenarios instead of a \
              backend; non-zero exit unless every mutant is caught by its \
              intended detector and the clean control stays silent")
  in
  let races =
    Arg.(value & flag & info [ "races" ]
           ~doc:"Report race findings only (lockset + happens-before)")
  in
  let lock_order =
    Arg.(value & flag & info [ "lock-order" ]
           ~doc:"Report lock-order cycles only")
  in
  let run backend workload seed mutants races lock_order format out jobs
      fleet =
    setup ();
    let jobs = resolve_jobs jobs in
    let filter =
      match (races, lock_order) with
      | true, false -> Races_only
      | false, true -> Lock_order_only
      | _ -> All
    in
    if mutants then analyze_mutants filter seed ~jobs ~format ~out ~fleet
    else analyze_backend filter backend workload seed ~jobs ~format ~out ~fleet
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Record a workload's shared-memory access stream on one backend \
          and run the dynamic analyzers over it: Eraser-style lockset and \
          vector-clock happens-before race detection plus lock-order \
          (deadlock-potential) cycle detection.  Non-zero exit if a \
          conforming backend yields findings.  With $(b,--mutants), \
          validate the analyzers against seeded bugs instead.  \
          $(b,--format=json --out=FILE) emits the report machine-readably")
    Term.(
      const run $ backend $ workload $ seed $ mutants $ races $ lock_order
      $ format_arg $ out_arg $ jobs_arg $ fleet_term)

(* ---- causal profiler ---- *)

module Pf = Threads_profile.Profile

let profile_cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to profile (sim, uniproc, naive, hoare)")
  in
  let workload =
    Arg.(value & opt string "mutex" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name (mutex, condvar, semaphore, alert, broadcast)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("table", `Table); ("folded", `Folded); ("chrome", `Chrome);
               ("json", `Json) ])
          `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(docv) is $(b,table) (critical path, per-object attribution, \
             top blockers, wait decomposition), $(b,folded) (flamegraph \
             folded stacks), $(b,chrome) (trace-event JSON with per-state \
             thread tracks and a critical-path track) or $(b,json) \
             (structured report)")
  in
  let run backend workload seed format out =
    let b =
      match Bk.find backend with
      | Some b -> b
      | None ->
        Printf.eprintf "unknown backend %s; available: %s\n" backend
          (String.concat ", " (Bk.names ()));
        exit 1
    in
    let wl =
      match Wl.find workload with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s; available: %s\n" workload
          (String.concat ", " (Wl.names ()));
        exit 1
    in
    if not (Bk.supports b wl) then begin
      Printf.eprintf "backend %s lacks a feature workload %s needs\n"
        b.Bk.name wl.Wl.name;
      exit 1
    end;
    match b.Bk.instrument with
    | Bk.Lock_trace _ | Bk.No_instrument ->
      Printf.eprintf
        "backend %s is not profilable (no simulator machine to observe)\n"
        b.Bk.name;
      exit 1
    | Bk.Machine_access run ->
      let r = Pf.recorder () in
      let outcome, machine = run ~observe:(Pf.record r) ~seed wl in
      let p = Pf.of_run r machine in
      let s =
        match format with
        | `Table ->
          Printf.sprintf "backend %s, workload %s, seed %d: %s\n\n" b.Bk.name
            wl.Wl.name seed
            (Format.asprintf "%a" Bk.pp_verdict outcome.Bk.verdict)
          ^ Pf.render p
        | `Folded -> Pf.folded p
        | `Chrome -> Pf.chrome p
        | `Json -> Obs.Json.to_string (Pf.to_json p) ^ "\n"
      in
      write_out ~out s
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the causal profiler: reconstruct every \
          thread's running / spin / runnable / blocked timeline from the \
          zero-sim-cost probe stream, extract the blocking-chain critical \
          path (whose step durations tile the makespan exactly), attribute \
          it per object, rank the top blockers, and report wait-for \
          forensics (deadlock cycles, threads still blocked at exit).  \
          Profiled runs are cycle- and schedule-identical to unprofiled \
          ones")
    Term.(const run $ backend $ workload $ seed $ format $ out_arg)

(* ---- static spec verifier ---- *)

module SC = Threads_staticcheck

let read_spec = function
  | None -> ("threads (builtin)", Spec_core.Threads_interface.source)
  | Some f -> (
    ( f,
      try
        let ic = open_in f in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error e ->
        Printf.eprintf "cannot read %s: %s\n" f e;
        exit 1 ))

let parse_spec name src =
  try Spec_core.Parser.interface_of_string_located src with
  | Spec_core.Parser.Parse_error (msg, p) ->
    Printf.eprintf "%s:%d:%d: parse error: %s\n" name p.Spec_core.Lexer.line
      p.Spec_core.Lexer.col msg;
    exit 1
  | Spec_core.Lexer.Lex_error (msg, p) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" name
      p.Spec_core.Lexer.line p.Spec_core.Lexer.col msg;
    exit 1

let sc_finding_json (f : SC.Finding.t) =
  Obs.Json.Obj
    [ ("class", Obs.Json.String f.SC.Finding.cls);
      ("severity",
       Obs.Json.String (SC.Finding.severity_name f.SC.Finding.severity));
      ("where", Obs.Json.String f.SC.Finding.where);
      ("msg", Obs.Json.String f.SC.Finding.msg) ]

(* The spec-level scenario catalogue the whole-program pass analyzes. *)
let progcheck_catalogue () =
  [ Threads_harness.Scenarios.mutex_contention 2;
    Threads_harness.Scenarios.wait_signal 1;
    Threads_harness.Scenarios.alert_wait_mutual_exclusion ();
    Threads_harness.Scenarios.nelson ();
    Threads_harness.Scenarios.semaphore_pingpong () ]

(* The clause-level pass alone (check-spec --lint-only). *)
let lint_only name iface locs ~out =
  let findings = Lint.lint ~locs iface in
  let errs = List.length (Lint.errors findings) in
  write_out ~out
    (String.concat ""
       (List.map
          (fun f -> Format.asprintf "%s: %a@." name Lint.pp_finding f)
          findings)
    ^ Printf.sprintf "%s: %d procedure(s), %d error(s), %d warning(s)\n" name
        (List.length iface.Spec_core.Proc.i_procs)
        errs
        (List.length findings - errs));
  if errs > 0 then exit 1

let check_spec_mutants ~format ~out =
  let pristine = SC.Speccheck.check Spec_core.Threads_interface.final in
  let pristine_clean = pristine.SC.Speccheck.rep_findings = [] in
  let results = SC.Speccheck.check_mutants () in
  let missed =
    List.filter (fun r -> not r.SC.Speccheck.mu_caught) results
  in
  let emit, finish = make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "static");
              ("pristine_clean", Obs.Json.Bool pristine_clean);
              ( "mutants",
                Obs.Json.Arr
                  (List.map
                     (fun (r : SC.Speccheck.mutant_result) ->
                       Obs.Json.Obj
                         [ ("name", Obs.Json.String r.SC.Speccheck.mu_name);
                           ( "expected",
                             Obs.Json.String r.SC.Speccheck.mu_expected );
                           ( "primary",
                             match r.SC.Speccheck.mu_primary with
                             | Some c -> Obs.Json.String c
                             | None -> Obs.Json.Null );
                           ("caught", Obs.Json.Bool r.SC.Speccheck.mu_caught);
                           ( "classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  r.SC.Speccheck.mu_classes) ) ])
                     results) ) ])
      ^ "\n")
  | `Table ->
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Left;
            Threads_util.Table.Left; Threads_util.Table.Left ]
        ~title:"check-spec: seeded spec mutants"
        [ "mutant"; "expected class"; "primary class"; "verdict" ]
    in
    Threads_util.Table.add_row t
      [ "(pristine control)"; "no findings";
        (if pristine_clean then "no findings" else "FINDINGS");
        (if pristine_clean then "clean" else "DIRTY") ];
    List.iter
      (fun (r : SC.Speccheck.mutant_result) ->
        Threads_util.Table.add_row t
          [ r.SC.Speccheck.mu_name; r.SC.Speccheck.mu_expected;
            (match r.SC.Speccheck.mu_primary with
            | Some c -> c
            | None -> "(none)");
            (if r.SC.Speccheck.mu_caught then "caught" else "MISSED") ])
      results;
    emit (Threads_util.Table.render t);
    if pristine_clean && missed = [] then
      emit "all spec mutants caught with their expected class\n");
  finish ();
  if not pristine_clean then begin
    Printf.eprintf "FAIL: pristine spec produced findings\n";
    exit 1
  end;
  if missed <> [] then begin
    List.iter
      (fun (r : SC.Speccheck.mutant_result) ->
        Printf.eprintf "FAIL: mutant %s expected %s, primary %s\n"
          r.SC.Speccheck.mu_name r.SC.Speccheck.mu_expected
          (match r.SC.Speccheck.mu_primary with Some c -> c | None -> "none"))
      missed;
    exit 1
  end

(* Dynamic violation sets from a [repro explore --format=json] report. *)
let dynamic_of_explore_json file =
  let fail msg =
    Printf.eprintf "cannot use %s as explore report: %s\n" file msg;
    exit 1
  in
  let src =
    try
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> fail e
  in
  match Obs.Json.of_string src with
  | exception Obs.Json.Parse_error e -> fail e
  | j -> (
    match Obs.Json.find j "scenarios" with
    | Some (Obs.Json.Arr scenarios) ->
      List.filter_map
        (fun s ->
          match
            (Obs.Json.find s "scenario", Obs.Json.find s "violations")
          with
          | Some (Obs.Json.String name), Some (Obs.Json.Arr vs) ->
            Some
              ( name,
                List.filter_map
                  (function Obs.Json.String v -> Some v | _ -> None)
                  vs )
          | _ -> None)
        scenarios
    | _ -> fail "no scenarios array")

let check_spec_crosscheck ~dynamic_file ~format ~out =
  let dynamic =
    match dynamic_file with
    | "" -> None
    | f -> Some (dynamic_of_explore_json f)
  in
  let entries =
    SC.Crossval.run ?dynamic Spec_core.Threads_interface.final
  in
  let bad = List.filter (fun e -> not e.SC.Crossval.x_ok) entries in
  let emit, finish = make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "static-crosscheck");
              ( "dynamic_source",
                Obs.Json.String
                  (if dynamic_file = "" then "pinned" else dynamic_file) );
              ( "scenarios",
                Obs.Json.Arr
                  (List.map
                     (fun (e : SC.Crossval.entry) ->
                       Obs.Json.Obj
                         [ ( "scenario",
                             Obs.Json.String e.SC.Crossval.x_scenario );
                           ( "dynamic_classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  e.SC.Crossval.x_dynamic_classes) );
                           ( "static_classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  e.SC.Crossval.x_static_classes) );
                           ("ok", Obs.Json.Bool e.SC.Crossval.x_ok) ])
                     entries) ) ])
      ^ "\n")
  | `Table ->
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Left;
            Threads_util.Table.Left; Threads_util.Table.Left ]
        ~title:
          (Printf.sprintf "check-spec: DPOR soundness cross-check (%s)"
             (if dynamic_file = "" then "pinned expectations"
              else dynamic_file))
        [ "scenario"; "dynamic classes"; "static classes"; "sound" ]
    in
    List.iter
      (fun (e : SC.Crossval.entry) ->
        Threads_util.Table.add_row t
          [ e.SC.Crossval.x_scenario;
            (match e.SC.Crossval.x_dynamic_classes with
            | [] -> "(none)"
            | cs -> String.concat ", " cs);
            (match e.SC.Crossval.x_static_classes with
            | [] -> "(none)"
            | cs -> String.concat ", " cs);
            (if e.SC.Crossval.x_ok then "yes" else "NO") ])
      entries;
    emit (Threads_util.Table.render t);
    if bad = [] then
      emit
        "every dynamically observed violation class is statically \
         reachable\n");
  finish ();
  if bad <> [] then begin
    List.iter
      (fun (e : SC.Crossval.entry) ->
        Printf.eprintf
          "FAIL: %s: dynamic violation class not statically reachable\n"
          e.SC.Crossval.x_scenario)
      bad;
    exit 1
  end

let check_spec_full name iface locs ~demos ~format ~out =
  let rep = SC.Speccheck.check ~locs iface in
  let prog_reports =
    List.map (SC.Progcheck.check iface) (progcheck_catalogue ())
  in
  let demo_reports =
    if demos then
      List.map (SC.Progcheck.check iface) SC.Progcheck.demo_scenarios
    else []
  in
  let all_findings =
    rep.SC.Speccheck.rep_findings
    @ List.concat_map (fun r -> r.SC.Progcheck.p_findings) prog_reports
  in
  let errs = List.length (SC.Finding.errors all_findings) in
  let warns = List.length all_findings - errs in
  let emit, finish = make_emit out in
  let emit_findings fs =
    List.iter (fun f -> emit (Format.asprintf "  %a@." SC.Finding.pp f)) fs
  in
  (match format with
  | `Json ->
    let model_json m =
      Obs.Json.Obj
        [ ("scenario", Obs.Json.String m.SC.Speccheck.mr_scenario);
          ("skipped", Obs.Json.Bool m.SC.Speccheck.mr_skipped);
          ("states", Obs.Json.Int m.SC.Speccheck.mr_states);
          ("transitions", Obs.Json.Int m.SC.Speccheck.mr_transitions);
          ( "findings",
            Obs.Json.Arr
              (List.map sc_finding_json m.SC.Speccheck.mr_findings) ) ]
    in
    let prog_json (r : SC.Progcheck.report) =
      Obs.Json.Obj
        [ ("scenario", Obs.Json.String r.SC.Progcheck.p_scenario);
          ( "lock_order_edges",
            Obs.Json.Arr
              (List.map
                 (fun (a, b) ->
                   Obs.Json.Arr [ Obs.Json.String a; Obs.Json.String b ])
                 r.SC.Progcheck.p_edges) );
          ( "findings",
            Obs.Json.Arr (List.map sc_finding_json r.SC.Progcheck.p_findings)
          ) ]
    in
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            ([ ("schema_version", Obs.Json.Int 1);
               ("kind", Obs.Json.String "static");
               ("spec", Obs.Json.String name);
               ( "lint",
                 Obs.Json.Arr
                   (List.map sc_finding_json rep.SC.Speccheck.rep_lint) );
               ( "model",
                 Obs.Json.Arr (List.map model_json rep.SC.Speccheck.rep_model)
               );
               ( "uncovered",
                 Obs.Json.Arr
                   (List.map
                      (fun (p, a, ci) ->
                        Obs.Json.String (Printf.sprintf "%s.%s#%d" p a (ci + 1)))
                      rep.SC.Speccheck.rep_uncovered) );
               ("program", Obs.Json.Arr (List.map prog_json prog_reports)) ]
            @ (if demos then
                 [ ("demos", Obs.Json.Arr (List.map prog_json demo_reports)) ]
               else [])
            @ [ ("errors", Obs.Json.Int errs);
                ("warnings", Obs.Json.Int warns) ]))
      ^ "\n")
  | `Table ->
    emit (Printf.sprintf "check-spec: %s\n" name);
    emit_findings rep.SC.Speccheck.rep_lint;
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Right;
            Threads_util.Table.Right; Threads_util.Table.Right ]
        ~title:"spec model checking (abstract exploration)"
        [ "scenario"; "states"; "transitions"; "findings" ]
    in
    List.iter
      (fun m ->
        Threads_util.Table.add_row t
          [ m.SC.Speccheck.mr_scenario;
            (if m.SC.Speccheck.mr_skipped then "-"
             else string_of_int m.SC.Speccheck.mr_states);
            (if m.SC.Speccheck.mr_skipped then "-"
             else string_of_int m.SC.Speccheck.mr_transitions);
            string_of_int (List.length m.SC.Speccheck.mr_findings) ])
      rep.SC.Speccheck.rep_model;
    emit (Threads_util.Table.render t);
    List.iter
      (fun m -> emit_findings m.SC.Speccheck.mr_findings)
      rep.SC.Speccheck.rep_model;
    List.iter
      (fun (p, a, ci) ->
        emit (Printf.sprintf "  unreachable: case %d of %s.%s\n" (ci + 1) p a))
      rep.SC.Speccheck.rep_uncovered;
    let pt =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Right;
            Threads_util.Table.Right ]
        ~title:"whole-program static analysis (locksets, lock order)"
        [ "scenario"; "lock-order edges"; "findings" ]
    in
    List.iter
      (fun (r : SC.Progcheck.report) ->
        Threads_util.Table.add_row pt
          [ r.SC.Progcheck.p_scenario;
            string_of_int (List.length r.SC.Progcheck.p_edges);
            string_of_int (List.length r.SC.Progcheck.p_findings) ])
      prog_reports;
    emit (Threads_util.Table.render pt);
    List.iter
      (fun (r : SC.Progcheck.report) -> emit_findings r.SC.Progcheck.p_findings)
      prog_reports;
    if demos then begin
      let dt =
        Threads_util.Table.create
          ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Left ]
          ~title:"defect demonstrations (not counted in the verdict)"
          [ "scenario"; "finding" ]
      in
      List.iter
        (fun (r : SC.Progcheck.report) ->
          List.iter
            (fun (f : SC.Finding.t) ->
              Threads_util.Table.add_row dt
                [ r.SC.Progcheck.p_scenario;
                  Printf.sprintf "[%s] %s" f.SC.Finding.cls f.SC.Finding.msg ])
            r.SC.Progcheck.p_findings)
        demo_reports;
      emit (Threads_util.Table.render dt)
    end;
    emit
      (Printf.sprintf "check-spec: %s: %d error(s), %d warning(s)\n" name
         errs warns));
  finish ();
  if errs > 0 then exit 1

let check_spec_cmd =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:
             "Specification file in the concrete syntax; defaults to the \
              built-in Threads interface (specs/threads.lspec)")
  in
  let lint_only_flag =
    Arg.(value & flag & info [ "lint-only" ]
           ~doc:"Run only the clause-level linter")
  in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:
             "Verify the verifier: every seeded spec defect must be flagged \
              with its expected diagnostic class while the pristine spec \
              stays clean; non-zero exit otherwise")
  in
  let crosscheck =
    Arg.(value
         & opt ~vopt:(Some "") (some string) None
         & info [ "crosscheck" ] ~docv:"FILE"
             ~doc:
               "Check DPOR soundness: every violation class observed by \
                dynamic exploration must be reachable in the static \
                abstraction.  With $(docv), read the dynamic violations \
                from a $(b,repro explore --format=json) report; otherwise \
                use the pinned expectation sets")
  in
  let demos =
    Arg.(value & flag & info [ "demos" ]
           ~doc:
             "Also analyze the built-in defect demonstration scenarios \
              (lock inversion, double acquire, unheld release, blocking in \
              an interrupt handler); their findings do not affect the exit \
              status")
  in
  let run file lint_only_flag mutants crosscheck demos format out =
    setup ();
    if mutants then check_spec_mutants ~format ~out
    else
      match crosscheck with
      | Some dynamic_file -> check_spec_crosscheck ~dynamic_file ~format ~out
      | None ->
        let name, src = read_spec file in
        let iface, locs = parse_spec name src in
        if lint_only_flag then lint_only name iface locs ~out
        else check_spec_full name iface locs ~demos ~format ~out
  in
  Cmd.v
    (Cmd.info "check-spec"
       ~doc:
         "Statically verify an interface specification.  Pass 1 lints every \
          clause (well-formedness, dead WHEN guards, unimplementable \
          ENSURES, unconstrained MODIFIES) and model-checks a finite \
          abstract transition system compiled from the spec: deadlock \
          freedom with benign-wakeup separation, signal-loss freedom across \
          the Enqueue/Resume window, mutex-theft freedom, stale-waiter and \
          mutual-exclusion invariants, and case reachability.  Pass 2 \
          statically analyzes client scenarios without executing them: \
          must-hold locksets, lock-order cycles, blocking calls in \
          interrupt handlers.  $(b,--mutants) validates the verifier \
          against seeded spec defects; $(b,--crosscheck) validates the \
          abstraction against dynamic DPOR exploration; non-zero exit on \
          any error-level finding")
    Term.(
      const run $ file $ lint_only_flag $ mutants $ crosscheck $ demos
      $ format_arg $ out_arg)

(* ---- generative chaos engine ---- *)

module Gen = Threads_gen

let generate_cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to generate against (sim, uniproc, naive, hoare, \
                 multicore)")
  in
  let runs =
    Arg.(value & opt positive 100 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of generated scenarios")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S"
           ~doc:"Campaign base seed; cell $(b,i) draws from the \
                 deterministic (S, i) stream")
  in
  let policy =
    Arg.(value & opt string "safe" & info [ "policy" ] ~docv:"P"
           ~doc:"Generation policy: $(b,safe) (deadlock-free by \
                 construction; any stranding is a finding), $(b,free) \
                 (unconstrained; only spec violations count), $(b,irq) \
                 (safe plus interrupt-context V)")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Compose each scenario with a generated fault plan \
                 (backend must have a chaos driver)")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ]
           ~doc:"Minimize the first counterexample to a locally-minimal \
                 replayable scenario")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Write the minimized counterexample as a replay file \
                 (implies $(b,--shrink))")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run a saved counterexample file and re-classify it \
                 (exit 1 if the pinned classification does not reproduce)")
  in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:"Mutation adequacy: run generated scenarios against every \
                 seeded spec mutant and report the kill table")
  in
  let scenarios =
    Arg.(value & opt count 12 & info [ "scenarios" ] ~docv:"N"
           ~doc:"Generated scenarios per differential in $(b,--mutants) \
                 mode")
  in
  let require =
    Arg.(value & opt count 0 & info [ "require" ] ~docv:"K"
           ~doc:"In $(b,--mutants) mode, exit non-zero unless at least \
                 $(docv) mutants are killed")
  in
  let resolve_backend name =
    match Bk.find name with
    | Some b -> b
    | None ->
      Printf.eprintf "unknown backend %s; available: %s\n" name
        (String.concat ", " (Bk.names ()));
      exit 1
  in
  let run_replay file out =
    let emit, finish = make_emit out in
    match Gen.Replay.load file with
    | Error msg ->
      Printf.eprintf "cannot replay %s: %s\n" file msg;
      exit 1
    | Ok r ->
      let b = resolve_backend r.Gen.Replay.backend in
      let c =
        try Gen.Oracle.run b r.Gen.Replay.scenario
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      let got =
        match c with
        | Gen.Oracle.Pass label -> Printf.sprintf "pass (%s)" label
        | Gen.Oracle.Fail (kind, detail) ->
          Printf.sprintf "%s (%s)" (Gen.Oracle.kind_name kind) detail
      in
      emit (Printf.sprintf "replay %s: backend=%s %s\n" file b.Bk.name got);
      let ok =
        match (r.Gen.Replay.expect, c) with
        | None, _ -> true
        | Some k, Gen.Oracle.Fail (k', _) -> Gen.Oracle.same_kind k k'
        | Some _, Gen.Oracle.Pass _ -> false
      in
      (match r.Gen.Replay.expect with
      | Some k ->
        emit
          (Printf.sprintf "  pinned %s: %s\n" (Gen.Oracle.kind_name k)
             (if ok then "reproduced" else "NOT REPRODUCED"))
      | None -> ());
      finish ();
      if not ok then exit 1
  in
  let run_mutants ~seed ~scenarios ~require out =
    setup ();
    let emit, finish = make_emit out in
    let rows = Gen.Mutants.kill_table ~scenarios ~seed () in
    emit (Format.asprintf "%a" Gen.Mutants.render rows);
    finish ();
    if Gen.Mutants.killed rows < require then begin
      Printf.eprintf "FAIL: %d mutants killed, %d required\n"
        (Gen.Mutants.killed rows) require;
      exit 1
    end
  in
  let run backend runs seed policy chaos shrink save replay mutants
      scenarios require out jobs fleet =
    if replay <> None && mutants then begin
      Printf.eprintf "--replay and --mutants are mutually exclusive\n";
      exit 1
    end;
    match replay with
    | Some file -> run_replay file out
    | None when mutants -> run_mutants ~seed ~scenarios ~require out
    | None ->
      let jobs = resolve_jobs jobs in
      let b = resolve_backend backend in
      let policy =
        match Gen.Generate.policy_of_string policy with
        | Some p -> p
        | None ->
          Printf.eprintf "unknown policy %s; available: %s\n" policy
            (String.concat ", "
               (List.map Gen.Generate.policy_name Gen.Generate.policies));
          exit 1
      in
      let config =
        {
          Gen.Campaign.policy;
          runs;
          seed;
          chaos;
          shrink = shrink || save <> None;
        }
      in
      let emit, finish = make_emit out in
      with_fleet ~label:("generate " ^ b.Bk.name) ~jobs ~total:runs fleet
        (fun prog ->
          let telemetry = Option.map Tel.Progress.sink prog in
          let r =
            try Gen.Campaign.run ?telemetry ~jobs b config
            with Invalid_argument msg ->
              Printf.eprintf "%s\n" msg;
              exit 1
          in
          emit (Format.asprintf "%a" Gen.Campaign.render r);
          Option.iter
            (fun file ->
              match r.Gen.Campaign.minimal with
              | Some (rf, _) ->
                (try Gen.Replay.save file rf
                 with Sys_error e ->
                   finish ();
                   Printf.eprintf "cannot write %s: %s\n" file e;
                   exit 1);
                Printf.eprintf "wrote %s (%d bytes)\n" file
                  (String.length (Gen.Replay.to_string rf))
              | None ->
                Printf.eprintf
                  "no counterexample to save (all %d runs passed)\n"
                  r.Gen.Campaign.config.Gen.Campaign.runs)
            save;
          finish ();
          if b.Bk.conforming && r.Gen.Campaign.failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generative chaos engine: generate random client programs over \
          random object graphs (locks, semaphores, condition flags, \
          producer/consumer tokens, alerts, timeouts, interrupt-context \
          V), run them against a backend with spec-conformance checking, \
          and shrink any counterexample to a locally-minimal replayable \
          (program, seed, fault plan) triple.  Deterministic in \
          $(b,--seed) at any $(b,--jobs).  $(b,--replay) re-runs a saved \
          counterexample; $(b,--mutants) measures mutation adequacy \
          against the seeded spec defects.  Non-zero exit when a \
          conforming backend yields a counterexample")
    Term.(
      const run $ backend $ runs $ seed $ policy $ chaos $ shrink $ save
      $ replay $ mutants $ scenarios $ require $ out_arg $ jobs_arg
      $ fleet_term)

(* ---- subcommand map (bare `repro` and `repro help`) ---- *)

let command_summaries =
  [ ("list", "list the experiments and the claims they reproduce");
    ("run", "run one or more experiments by id (e.g. run E1 E7)");
    ("all", "run every experiment");
    ("spec", "print a specification variant in the concrete syntax");
    ("trace", "run a demo workload and print / export its linearized trace");
    ("metrics", "run the demo workload and print the observability report");
    ("conform", "replay a backend's trace against the formal spec");
    ("diff", "run all backends side by side and compare verdicts");
    ("chaos", "deterministic fault-plan sweeps with spec conformance");
    ("generate", "generative chaos: random programs, shrink, replay");
    ("explore", "DPOR schedule exploration of the small scenarios");
    ("analyze", "dynamic race and lock-order analysis (or --mutants)");
    ("profile", "causal profiler: critical path, blockers, wait forensics");
    ("check-spec", "static spec verifier: lint + abstract model check");
    ("help", "print this subcommand summary") ]

let print_command_summaries () =
  print_string
    "repro — Birrell/Guttag/Horning/Levin synchronization primitives, \
     reproduced\n\nCommands:\n";
  let w =
    List.fold_left (fun a (n, _) -> max a (String.length n)) 0
      command_summaries
  in
  List.iter
    (fun (n, s) -> Printf.printf "  %-*s  %s\n" w n s)
    command_summaries;
  print_string
    "\nRun 'repro COMMAND --help' for flags; matrix commands take --jobs, \
     --progress, --fleet and --fleet-trace.\n"

let help_cmd =
  Cmd.v
    (Cmd.info "help" ~doc:"Print a one-line summary of every subcommand")
    Term.(const print_command_summaries $ const ())

let default = Term.(const print_command_summaries $ const ())

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduction of Birrell, Guttag, Horning & Levin, Synchronization \
         Primitives for a Multiprocessor: A Formal Specification (SRC-20, \
         1987)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ list_cmd; run_cmd; all_cmd; spec_cmd; trace_cmd; metrics_cmd;
            conform_cmd; diff_cmd; chaos_cmd; generate_cmd; explore_cmd;
            analyze_cmd; profile_cmd; check_spec_cmd; help_cmd ]))
