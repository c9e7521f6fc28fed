(* The per-layer pass: each section calls one library's public functions
   inside a span and reports that layer's work counts, host time per unit
   of work and allocation.  Sizes are fixed, so every count repeats
   exactly; only the times vary.  With [~small], the smoke test's size,
   every section runs on a few cells, and DPOR on the wakeup-waiting
   scenario only.  The metric each section should move is listed in
   perfbench/README.md. *)

module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Ex = Firefly.Explore
module Iface = Spec_core.Threads_interface

type metric = { name : string; value : float; unit : string }

let metrics = ref []
let failures = ref []
let emit name unit value = metrics := { name; value; unit } :: !metrics
let check what ok = if not ok then failures := what :: !failures
let per a b = a /. float_of_int (max 1 b)

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let sim = Option.get (Bk.find "sim")

type sync = (module Taos_threads.Sync_intf.SYNC with type thread = Threads_util.Tid.t)

let pairs_body n (sync : sync) =
  let module Sy = (val sync) in
  let m = Sy.mutex () in
  for _ = 1 to n do
    Sy.acquire m;
    Sy.release m
  done

(* E2's body: 4 threads x 50 critical sections of 10 cycles. *)
let e2_body (sync : sync) =
  let module Sy = (val sync) in
  let m = Sy.mutex () in
  let worker () =
    for _ = 1 to 50 do
      Sy.acquire m;
      Firefly.Machine.Ops.tick 10;
      Sy.release m
    done
  in
  let ts = List.init 4 (fun _ -> Sy.fork worker) in
  List.iter Sy.join ts

(* Few long runs: E10's preempting mode livelocks on some seeds and then
   runs its whole 200 000-step budget — the bulk of `repro all`. *)
let firefly_long ~small =
  let rec livelocking seed acc =
    if List.length acc = (if small then 1 else 4) then List.rev acc
    else
      let r = Threads_harness.E10.pv_run ~prefer:true ~seed () in
      livelocking (seed + 1)
        (if r.Firefly.Interleave.verdict = Firefly.Interleave.Step_limit then
           seed :: acc
         else acc)
  in
  let seeds = livelocking 0 [] in
  let (steps, words), dt =
    Span.timed "firefly.long" (fun () ->
        minor_words (fun () ->
            List.fold_left
              (fun acc seed ->
                let r = Threads_harness.E10.pv_run ~prefer:true ~seed () in
                acc + r.Firefly.Interleave.steps)
              0 seeds))
  in
  emit "firefly.ns_per_step.long" "ns" (per (dt *. 1e9) steps);
  emit "firefly.minor_words_per_step.long" "words" (per words steps)

(* Many short runs: the sim conform matrix (six workloads x seeds 0-299),
   with the run and the conformance check of each cell timed apart. *)
let sim_cells ~small =
  let run_s = ref 0. and check_s = ref 0. in
  let run_words = ref 0. and check_words = ref 0. in
  let steps = ref 0 and events = ref 0 and runs = ref 0 in
  (* Per-cell clock stamps rather than spans: 1800 cells would otherwise
     record 3600 spans. *)
  let (), _ =
    Span.timed "firefly.short" (fun () ->
        List.iter
          (fun (w : Wl.t) ->
            for seed = 0 to (if small then 4 else 299) do
              let t0 = Span.now_ns () in
              let (o : Bk.outcome), words =
                minor_words (fun () -> sim.Bk.run ~seed w)
              in
              let t1 = Span.now_ns () in
              let report, cwords =
                minor_words (fun () ->
                    Threads_model.Conformance.check Iface.final o.Bk.trace)
              in
              let t2 = Span.now_ns () in
              run_s := !run_s +. (float_of_int (t1 - t0) *. 1e-9);
              check_s := !check_s +. (float_of_int (t2 - t1) *. 1e-9);
              run_words := !run_words +. words;
              check_words := !check_words +. cwords;
              steps := !steps + Option.value o.Bk.steps ~default:0;
              events := !events + report.Threads_model.Conformance.events;
              incr runs;
              check "sim conform cell"
                (o.Bk.verdict = Bk.Completed
                && Threads_model.Conformance.ok report)
            done)
          Wl.all)
  in
  emit "firefly.ns_per_step.short" "ns" (per (!run_s *. 1e9) !steps);
  emit "firefly.minor_words_per_step.short" "words" (per !run_words !steps);
  emit "taos_threads.steps_per_run" "steps"
    (float_of_int !steps /. float_of_int !runs);
  emit "threads_model.conformance_ns_per_event" "ns"
    (per (!check_s *. 1e9) !events);
  emit "threads_model.conformance_minor_words_per_event" "words"
    (per !check_words !events);
  emit "threads_model.conformance_share_pct" "%"
    (100. *. !check_s /. (!run_s +. !check_s))

let firefly_setup ~small =
  let n = if small then 20 else 2000 in
  let (), dt =
    Span.timed "firefly.run_setup" (fun () ->
        for _ = 1 to n do
          ignore (Taos_threads.Api.run ~seed:1 (fun _ -> ()))
        done)
  in
  emit "firefly.run_setup_us" "us" (dt *. 1e6 /. float_of_int n);
  let instr, _ =
    Span.timed "taos_threads.e1_pairs" (fun () ->
        let r = Taos_threads.Api.run ~seed:1 (pairs_body 10_000) in
        Firefly.Machine.total_instructions r.Firefly.Interleave.machine)
  in
  emit "taos_threads.instr_per_pair" "instr" (float_of_int instr /. 10_000.);
  let runs = if small then 1 else 20 in
  let instr, dt =
    Span.timed "firefly.timed" (fun () ->
        let total = ref 0 in
        for _ = 1 to runs do
          let r = Taos_threads.Api.run_timed ~processors:5 ~seed:7 e2_body in
          total :=
            !total + Firefly.Machine.total_instructions r.Firefly.Timed.machine
        done;
        !total)
  in
  emit "firefly.timed_ns_per_instr" "ns" (per (dt *. 1e9) instr)

(* DPOR as `repro explore --mode=dpor --jobs=1` runs it: the frontier is
   split at two branches and each prefix searched in turn. *)
let explore ~small =
  let module Sc = Threads_harness.Explore_scenarios in
  let total = ref Ex.dpor_stats_zero and total_s = ref 0. in
  List.iter
    (fun (s : Sc.t) ->
      let (found, (st : Ex.dpor_stats)), dt =
        Span.timed ("firefly.explore." ^ s.Sc.name) (fun () ->
            Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth
              ~max_runs:1_000_000 ~split_branches:2 ~jobs:1 ~build:s.Sc.build
              s.Sc.check)
      in
      check ("explore " ^ s.Sc.name) (st.Ex.complete && found = s.Sc.expect);
      if s.Sc.name = "naive-broadcast" then
        emit "firefly.explore.naive_broadcast_s" "s" dt;
      total := Ex.dpor_stats_add !total st;
      total_s := !total_s +. dt)
    (if small then [ Option.get (Sc.find "wakeup-waiting") ] else Sc.all);
  let st = !total in
  emit "firefly.explore.executions" "count" (float_of_int st.Ex.executions);
  emit "firefly.explore.sleep_blocked" "count" (float_of_int st.Ex.sleep_blocked);
  emit "firefly.explore.steps" "count" (float_of_int st.Ex.dpor_steps);
  emit "firefly.explore.useful_ratio" "ratio"
    (float_of_int st.Ex.executions
    /. float_of_int (st.Ex.executions + st.Ex.sleep_blocked));
  emit "firefly.explore.us_per_execution" "us"
    (per (!total_s *. 1e6) st.Ex.executions);
  emit "firefly.explore.ns_per_step" "ns" (per (!total_s *. 1e9) st.Ex.dpor_steps)

let model ~small =
  let runs =
    [
      (Iface.final, Threads_harness.Scenarios.wait_signal 4);
      (Iface.nelson_bug, Threads_harness.Scenarios.nelson ());
    ]
  in
  let states, dt =
    Span.timed "threads_model.checker" (fun () ->
        List.fold_left
          (fun acc (iface, scen) ->
            acc + (Threads_model.Checker.run iface scen).Threads_model.Checker.states)
          0 runs)
  in
  emit "threads_model.checker_states_per_s" "1/s" (float_of_int states /. dt);
  let n = if small then 2 else 200 in
  let (), dt =
    Span.timed "spec_core.parse" (fun () ->
        for _ = 1 to n do
          ignore (Spec_core.Parser.interface_of_string Iface.source)
        done)
  in
  emit "spec_core.parse_us" "us" (dt *. 1e6 /. float_of_int n)

(* The sim chaos driver over the chaos matrix (six workloads x plans 0-6 x
   seeds 0-19), as `repro chaos --plans=7 --seeds=20` drives it. *)
let fault ~small =
  let chaos = Option.get sim.Bk.chaos in
  let (steps, words), dt =
    Span.timed "threads_fault.chaos" (fun () ->
        minor_words (fun () ->
            let steps = ref 0 in
            List.iter
              (fun (w : Wl.t) ->
                for plan_id = 0 to (if small then 0 else 6) do
                  let plan = Threads_fault.Plan.generate ~plan_id () in
                  for seed = 0 to (if small then 1 else 19) do
                    let _, o = chaos ~seed ~plan w in
                    steps := !steps + o.Threads_fault.Engine.steps
                  done
                done)
              Wl.all;
            !steps))
  in
  emit "threads_fault.ns_per_step" "ns" (per (dt *. 1e9) steps);
  emit "threads_fault.minor_words_per_step" "words" (per words steps);
  (* An empty plan should cost nothing, yet the engine's own scheduler
     runs a different schedule: compare the cycles of one seed. *)
  let mutex = Option.get (Wl.find "mutex") in
  let plain_cycles =
    match sim.Bk.instrument with
    | Bk.Machine_access f ->
      Firefly.Machine.total_cycles (snd (f ~seed:7 mutex))
    | _ -> 0
  in
  let _, o = chaos ~seed:7 ~plan:{ Threads_fault.Plan.id = -1; actions = [] } mutex in
  emit "threads_fault.empty_plan_cycle_ratio" "ratio"
    (float_of_int (Firefly.Machine.total_cycles o.Threads_fault.Engine.machine)
    /. float_of_int (max 1 plain_cycles))

let gen ~small ~seed =
  let module C = Threads_gen.Campaign in
  let config = { C.policy = Threads_gen.Generate.Safe; runs = (if small then 20 else 2000);
                 seed; chaos = false; shrink = false } in
  let (), dt =
    Span.timed "threads_gen.generate" (fun () ->
        for i = 0 to config.C.runs - 1 do
          ignore (C.scenario_of_cell config sim i)
        done)
  in
  emit "threads_gen.generate_us_per_program" "us"
    (dt *. 1e6 /. float_of_int config.C.runs);
  (* As `repro generate --backend=naive --runs=200 --shrink`: the shrink's
     cost is the campaign with shrinking minus the campaign without.  Run
     7 of seed 7 is the first to strand, so ten runs still shrink. *)
  let naive = Option.get (Bk.find "naive") in
  let campaign shrink =
    Span.timed
      (if shrink then "threads_gen.campaign+shrink" else "threads_gen.campaign")
      (fun () -> C.run naive { config with C.runs = (if small then 10 else 200); shrink })
  in
  let reps =
    List.init (if small then 1 else 3) (fun _ ->
        let _, plain_s = campaign false in
        let shrunk, shrunk_s = campaign true in
        (shrunk, shrunk_s -. plain_s))
  in
  let shrink_steps =
    match (fst (List.hd reps)).C.minimal with
    | Some (_, steps) -> List.length steps
    | None -> 0
  in
  check "naive campaign shrinks a counterexample" (shrink_steps > 0);
  emit "threads_gen.shrink_s" "s" (median (List.map snd reps));
  emit "threads_gen.shrink_steps" "count" (float_of_int shrink_steps)

(* The run-matrix executor at --jobs=1: the share of wall time its worker
   spends inside cells. *)
let runner ~small =
  let busy = ref 0 and started = ref 0 in
  let telemetry =
    {
      Threads_runner.Telemetry.null with
      cell_start = (fun ~worker:_ ~cell:_ -> started := Span.now_ns ());
      cell_done = (fun ~worker:_ ~cell:_ -> busy := !busy + (Span.now_ns () - !started));
    }
  in
  let (), dt =
    Span.timed "threads_runner.conform" (fun () ->
        List.iter
          (fun w ->
            ignore (Threads_backend.Crosscheck.conform ~telemetry ~jobs:1 sim w ~seeds:(if small then 5 else 300)))
          Wl.all)
  in
  emit "threads_runner.busy_fraction" "ratio" (float_of_int !busy *. 1e-9 /. dt)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let multicore ~small =
  Threads_multicore.Multicore.run (fun () ->
      let pairs = if small then 10_000 else 2_000_000 in
      let batches arm f =
        List.init 5 (fun _ ->
            let ok, dt = Span.timed arm f in
            check arm ok;
            dt)
      in
      let fast = batches "threads_multicore.uncontended" (fun () -> Lock.uncontended ~pairs) in
      emit "threads_multicore.acquire_release_ns" "ns" (median fast *. 1e9 /. float_of_int pairs);
      let _, words = minor_words (fun () -> Lock.uncontended ~pairs) in
      emit "threads_multicore.minor_words_per_pair" "words" (words /. float_of_int pairs);
      let std = batches "threads_multicore.stdlib" (fun () -> Lock.stdlib ~pairs) in
      emit "threads_multicore.stdlib_ns_per_pair" "ns" (median std *. 1e9 /. float_of_int pairs);
      let per_domain = if small then 10_000 else 500_000 in
      let cont = batches "threads_multicore.contended" (fun () -> Lock.contended ~pairs:per_domain) in
      emit "threads_multicore.contended_pairs_per_s" "1/s"
        (float_of_int (Lock.domains * per_domain) /. median cont);
      let (ok, lat), _ =
        Span.timed "threads_multicore.handoff" (fun () ->
            Lock.handoff ~rounds:(if small then 1000 else 100_000))
      in
      check "handoff turns alternate" ok;
      Array.sort compare lat;
      let us q = float_of_int (percentile lat q) /. 1e3 in
      emit "threads_multicore.handoff_us_p50" "us" (us 0.5);
      emit "threads_multicore.handoff_us_p99" "us" (us 0.99);
      emit "threads_multicore.handoff_us_p999" "us" (us 0.999))

let run ~seed ~small =
  List.iter
    (fun (name, f) -> ignore (Span.timed name f))
    [
      ( "firefly",
        fun () ->
          firefly_long ~small;
          sim_cells ~small;
          firefly_setup ~small;
          explore ~small );
      ("threads_model", fun () -> model ~small);
      ("threads_fault", fun () -> fault ~small);
      ("threads_gen", fun () -> gen ~small ~seed);
      ("threads_runner", fun () -> runner ~small);
      ("threads_multicore", fun () -> multicore ~small);
    ];
  (List.rev !metrics, List.rev !failures)
