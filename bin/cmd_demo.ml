(* repro trace [--seed n] [--format=text|chrome] — a demo workload's
   linearized trace with a conformance check, or its spans as Chrome
   trace-event JSON; repro metrics [--seed n] — the per-object
   observability report. *)

open Cmdliner

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
  let reg = Obs.Instrument.create () in
  ignore
    (Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
       (fun machine ->
         Obs.Instrument.record reg machine;
         Taos_threads.Api.build demo_workload machine));
  Obs.Instrument.snapshot reg

let thread_names (snap : Obs.Instrument.snapshot) =
  List.sort_uniq compare
    (List.map (fun (s : Obs.Instrument.span) -> s.track) snap.spans)
  |> List.map (fun track -> (track, Printf.sprintf "t%d" track))

let metrics =
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED") in
  let run seed format out =
    let snap = demo_snapshot ~seed in
    Cli.write_out ~out
      (match format with
      | `Table -> Obs.Report.render snap
      | `Json -> Obs.Json.to_string (Obs.Report.to_json snap) ^ "\n")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the deterministic demo workload and print the per-object \
          observability report (fast-path rates, counters, high-water \
          gauges, cycle histograms, span aggregates); --format=json \
          --out=FILE emits the same report machine-readably")
    Term.(const run $ seed $ Cli.format_arg $ Cli.out_arg)

let trace =
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
    Cli.write_out ~out
      (Obs.Json.to_string
         (Obs.Chrome_trace.to_json ~cycle_us:Firefly.Cost.us_per_cycle
            ~process_name:"firefly-sim" ~thread_names:(thread_names snap)
            snap.spans))
  in
  let run seed variant format out =
    let iface = Cli.variant variant in
    match format with
    | `Chrome -> chrome seed out
    | `Text ->
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
    Cli.write_out ~out
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
    Term.(const run $ seed $ variant $ format $ Cli.out_arg)
