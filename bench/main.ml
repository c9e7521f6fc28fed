(* Micro-benchmarks (Bechamel), one group per experiment with a
   timing-shaped component.  `dune exec bench/main.exe` prints ns/run for
   each; the full experiment tables come from `dune exec bin/repro.exe --
   all` (see EXPERIMENTS.md).

   What is timed here:
   - E1: the uncontended Acquire/Release pair on real hardware (this
     package vs Stdlib.Mutex), plus the simulated pair including the whole
     simulator machinery.
   - E2: one cycle-accurate contended run on the 5-CPU timed driver.
   - E3: one Signal-drain vs one Broadcast-drain over parked waiters.
   - E7/E9: the model checker on an incident scenario and the conformance
     checker over a long real trace.
   - spec: parsing and printing the full interface. *)

open Bechamel
open Toolkit

module S = Threads_multicore.Multicore.Sync

let e1_multicore_pair =
  let m = S.mutex () in
  Test.make ~name:"e1/multicore acquire+release"
    (Staged.stage (fun () ->
         S.acquire m;
         S.release m))

let e1_stdlib_pair =
  let m = Mutex.create () in
  Test.make ~name:"e1/stdlib lock+unlock"
    (Staged.stage (fun () ->
         Mutex.lock m;
         Mutex.unlock m))

let e1_sim_pair =
  (* one whole simulated run of 100 uncontended pairs *)
  Test.make ~name:"e1/sim 100 pairs (full machine)"
    (Staged.stage (fun () ->
         ignore
           (Taos_threads.Api.run ~seed:1 (fun sync ->
                let module Sy =
                  (val sync : Taos_threads.Sync_intf.SYNC
                     with type thread = Threads_util.Tid.t)
                in
                let m = Sy.mutex () in
                for _ = 1 to 100 do
                  Sy.acquire m;
                  Sy.release m
                done))))

let wake_run ~broadcast =
  ignore
    (Taos_threads.Api.run ~seed:3 (fun sync ->
         let module Sy =
           (val sync : Taos_threads.Sync_intf.SYNC
              with type thread = Threads_util.Tid.t)
         in
         let m = Sy.mutex () in
         let c = Sy.condition () in
         let flag = ref false in
         let waiter () =
           Sy.with_lock m (fun () ->
               while not !flag do
                 Sy.wait m c
               done)
         in
         let ws = List.init 8 (fun _ -> Sy.fork waiter) in
         Sy.with_lock m (fun () -> flag := true);
         if broadcast then Sy.broadcast c
         else begin
           for _ = 1 to 8 do
             Sy.signal c
           done;
           (* A Signal may find its target already between tests (awake
              but not yet re-checking the flag), so 8 signals need not
              wake all 8 waiters; sweep up any stragglers.  The broadcast
              arm wakes everyone in one call and needs no sweep. *)
           Sy.broadcast c
         end;
         List.iter Sy.join ws))

let e3_signal =
  Test.make ~name:"e3/drain 8 waiters with signals"
    (Staged.stage (fun () -> wake_run ~broadcast:false))

let e3_broadcast =
  Test.make ~name:"e3/drain 8 waiters with broadcast"
    (Staged.stage (fun () -> wake_run ~broadcast:true))

let e7_model_check =
  let scen = Threads_harness.Scenarios.nelson () in
  Test.make ~name:"e7/model-check nelson scenario"
    (Staged.stage (fun () ->
         ignore
           (Threads_model.Checker.run Spec_core.Threads_interface.nelson_bug
              scen)))

let e9_trace =
  let _, trace =
    Taos_threads.Api.run_traced ~seed:5 (fun sync ->
        let module Sy =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = Sy.mutex () in
        let c = Sy.condition () in
        let buf = ref 0 in
        let consumer () =
          for _ = 1 to 100 do
            Sy.with_lock m (fun () ->
                while !buf = 0 do
                  Sy.wait m c
                done;
                decr buf)
          done
        in
        let producer () =
          for _ = 1 to 100 do
            Sy.with_lock m (fun () ->
                incr buf;
                Sy.signal c)
          done
        in
        let cs = List.init 2 (fun _ -> Sy.fork consumer) in
        let ps = List.init 2 (fun _ -> Sy.fork producer) in
        List.iter Sy.join (cs @ ps))
  in
  trace

let e9_conformance =
  Test.make
    ~name:
      (Printf.sprintf "e9/conformance-check %d-event trace"
         (List.length e9_trace))
    (Staged.stage (fun () ->
         ignore
           (Threads_model.Conformance.check Spec_core.Threads_interface.final
              e9_trace)))

let spec_parse =
  Test.make ~name:"spec/parse full interface"
    (Staged.stage (fun () ->
         ignore
           (Spec_core.Parser.interface_of_string
              Spec_core.Threads_interface.source)))

let spec_print =
  Test.make ~name:"spec/print full interface"
    (Staged.stage (fun () ->
         ignore (Spec_core.Printer.to_string Spec_core.Threads_interface.final)))

let e2_timed_sim =
  Test.make ~name:"e2/timed sim, 4 threads x 50 ops, 5 cpus"
    (Staged.stage (fun () ->
         ignore
           (Taos_threads.Api.run_timed ~processors:5 ~seed:7 (fun sync ->
                let module Sy =
                  (val sync : Taos_threads.Sync_intf.SYNC
                     with type thread = Threads_util.Tid.t)
                in
                let m = Sy.mutex () in
                let worker () =
                  for _ = 1 to 50 do
                    Sy.acquire m;
                    Firefly.Machine.Ops.tick 10;
                    Sy.release m
                  done
                in
                let ts = List.init 4 (fun _ -> Sy.fork worker) in
                List.iter Sy.join ts))))

(* Analyzer overhead: the same contended workload (4 threads x 25 guarded
   increments) through the sim backend with no access log ("recording
   off"), with one subscribed ("recording on"), and the pure analysis pass
   over an already-recorded run.  The log is a host-side subscriber, so
   the on/off gap is the whole cost of capture; the analyzers run
   post-mortem and never touch the run. *)
let analysis_backend, analysis_instrument =
  let b = Option.get (Threads_backend.Backend.find "sim") in
  match b.Threads_backend.Backend.instrument with
  | Threads_backend.Backend.Machine_access f -> (b, f)
  | _ -> assert false

let analysis_workload =
  Option.get (Threads_backend.Workload.find "mutex")

let analysis_plain =
  Test.make ~name:"analysis/sim mutex, recording off"
    (Staged.stage (fun () ->
         ignore
           (analysis_backend.Threads_backend.Backend.run ~seed:7
              analysis_workload)))

let analysis_recorded =
  Test.make ~name:"analysis/sim mutex, recording on"
    (Staged.stage (fun () ->
         let log = Threads_analysis.Analysis.log () in
         ignore
           (analysis_instrument
              ~observe:(Threads_analysis.Analysis.record log)
              ~seed:7 analysis_workload)))

let analysis_log = Threads_analysis.Analysis.log ()

let analysis_machine =
  snd
    (analysis_instrument
       ~observe:(Threads_analysis.Analysis.record analysis_log)
       ~seed:7 analysis_workload)

let analysis_accesses =
  List.length (Threads_analysis.Analysis.accesses analysis_log)

let analysis_pass =
  Test.make
    ~name:
      (Printf.sprintf "analysis/analyze %d-access stream" analysis_accesses)
    (Staged.stage (fun () ->
         ignore
           (Threads_analysis.Analysis.of_run analysis_log analysis_machine)))

(* Injection overhead: the same sim mutex workload under the plain
   interleaver (analysis/sim mutex, recording off), under the fault
   engine with an empty plan (pure driver bookkeeping: trigger scan,
   timer poll, stall filter), and under the engine replaying the
   delay-wakeups plan (bookkeeping plus the injection itself). *)
let chaos_driver =
  Option.get analysis_backend.Threads_backend.Backend.chaos

let chaos_empty_plan = Threads_fault.Plan.{ id = -1; actions = [] }
let chaos_delay_plan = Threads_fault.Plan.generate ~plan_id:0 ()

let chaos_empty =
  Test.make ~name:"chaos/sim mutex, empty plan"
    (Staged.stage (fun () ->
         ignore (chaos_driver ~seed:7 ~plan:chaos_empty_plan analysis_workload)))

let chaos_injected =
  Test.make ~name:"chaos/sim mutex, delay-wakeups plan"
    (Staged.stage (fun () ->
         ignore (chaos_driver ~seed:7 ~plan:chaos_delay_plan analysis_workload)))

(* Scale-out arms: the same conformance matrix run sequentially and
   spread over every available domain by the work-stealing executor.
   The summaries are byte-identical (pinned in test/test_runner.ml); the
   ratio of the two timings is the scale-out speedup on this host.  On a
   single-core container the "max" arm measures pure executor overhead
   instead — `scale_jobs` in the JSON says which. *)
let scale_backend = Option.get (Threads_backend.Backend.find "uniproc")
let scale_workload = Option.get (Threads_backend.Workload.find "condvar")
let scale_seeds = 8
let scale_jobs = Threads_runner.recommended_jobs ()

let scale_seq =
  Test.make ~name:"scale/conform 8 seeds, jobs=1"
    (Staged.stage (fun () ->
         ignore
           (Threads_backend.Crosscheck.conform ~jobs:1 scale_backend
              scale_workload ~seeds:scale_seeds)))

let scale_par =
  Test.make ~name:"scale/conform 8 seeds, jobs=max"
    (Staged.stage (fun () ->
         ignore
           (Threads_backend.Crosscheck.conform ~jobs:scale_jobs scale_backend
              scale_workload ~seeds:scale_seeds)))

(* Schedule-exploration arms: exhaustive DFS vs sleep-set DPOR on the
   wakeup-waiting scenario (the one scenario small enough for DFS to
   finish quickly).  Both traverse the full tree; DPOR visits a fraction
   of the executions — the deterministic reduction itself is recorded in
   the JSON's `dpor` block, these arms time it. *)
let explore_scenario =
  Option.get (Threads_harness.Explore_scenarios.find "wakeup-waiting")

let explore_dfs =
  Test.make ~name:"explore/wakeup-waiting dfs"
    (Staged.stage (fun () ->
         ignore
           (Firefly.Explore.explore_all
              ~max_depth:explore_scenario.Threads_harness.Explore_scenarios.max_depth
              ~build:explore_scenario.Threads_harness.Explore_scenarios.build
              explore_scenario.Threads_harness.Explore_scenarios.check)))

let explore_dpor =
  Test.make ~name:"explore/wakeup-waiting dpor"
    (Staged.stage (fun () ->
         ignore
           (Firefly.Explore.explore_dpor
              ~max_depth:explore_scenario.Threads_harness.Explore_scenarios.max_depth
              ~build:explore_scenario.Threads_harness.Explore_scenarios.build
              explore_scenario.Threads_harness.Explore_scenarios.check)))

(* The reduction is deterministic (same scenario, same tree): measured
   once outside the timing loop, like `arm_sim_cycles`. *)
let dpor_block =
  let s = explore_scenario in
  let module Sc = Threads_harness.Explore_scenarios in
  let dfs_v, dfs_stats, dfs_complete =
    Firefly.Explore.explore_all ~max_depth:s.Sc.max_depth ~build:s.Sc.build
      s.Sc.check
  in
  let dpor_v, dpor_stats =
    Firefly.Explore.explore_dpor ~max_depth:s.Sc.max_depth ~build:s.Sc.build
      s.Sc.check
  in
  let dfs_execs = dfs_stats.Firefly.Explore.terminal_runs
                  + dfs_stats.Firefly.Explore.truncated_runs
  in
  let open Obs.Json in
  Obj
    [
      ("scenario", String s.Sc.name);
      ("dfs_executions", Int dfs_execs);
      ("dfs_complete", Bool dfs_complete);
      ("dpor_executions", Int dpor_stats.Firefly.Explore.executions);
      ("dpor_sleep_blocked", Int dpor_stats.Firefly.Explore.sleep_blocked);
      ("dpor_peak_depth", Int dpor_stats.Firefly.Explore.peak_depth);
      ("dpor_complete", Bool dpor_stats.Firefly.Explore.complete);
      ( "prune_pct",
        Float
          (100.
          *. (1.
             -. float_of_int dpor_stats.Firefly.Explore.executions
                /. float_of_int (max 1 dfs_execs))) );
      ("violations_agree", Bool (dfs_v = dpor_v));
    ]

let benchmark ~quick tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let limit, quota = if quick then (200, 0.05) else (2000, 0.5) in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

(* Deterministic simulated-cycle counts for the simulator-shaped arms,
   measured once outside the timing loop: the same seed gives the same
   schedule, so these are stable across hosts and runs — the trajectory
   CI tracks, next to the host-dependent ns figures. *)
let arm_sim_cycles =
  let cycles_of (report : Firefly.Interleave.report) =
    Firefly.Machine.total_cycles report.Firefly.Interleave.machine
  in
  let api_cycles ?processors ~seed body =
    match processors with
    | None -> cycles_of (Taos_threads.Api.run ~seed body)
    | Some p ->
      let r = Taos_threads.Api.run_timed ~processors:p ~seed body in
      Firefly.Machine.total_cycles r.Firefly.Timed.machine
  in
  let sim_pairs sync =
    let module Sy =
      (val sync : Taos_threads.Sync_intf.SYNC with type thread = Threads_util.Tid.t)
    in
    let m = Sy.mutex () in
    for _ = 1 to 100 do
      Sy.acquire m;
      Sy.release m
    done
  in
  let e2_body sync =
    let module Sy =
      (val sync : Taos_threads.Sync_intf.SYNC with type thread = Threads_util.Tid.t)
    in
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
  in
  (* Same body as wake_run, run once outside the timing loop for its
     deterministic cycle count. *)
  let wake_cycles ~broadcast =
    api_cycles ~seed:3 (fun sync ->
        let module Sy =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = Sy.mutex () in
        let c = Sy.condition () in
        let flag = ref false in
        let waiter () =
          Sy.with_lock m (fun () ->
              while not !flag do
                Sy.wait m c
              done)
        in
        let ws = List.init 8 (fun _ -> Sy.fork waiter) in
        Sy.with_lock m (fun () -> flag := true);
        if broadcast then Sy.broadcast c
        else begin
          for _ = 1 to 8 do
            Sy.signal c
          done;
          Sy.broadcast c
        end;
        List.iter Sy.join ws)
  in
  let analysis_cycles =
    let _, machine = analysis_instrument ~seed:7 analysis_workload in
    Firefly.Machine.total_cycles machine
  in
  let chaos_cycles plan =
    let _, o = chaos_driver ~seed:7 ~plan analysis_workload in
    Firefly.Machine.total_cycles o.Threads_fault.Engine.machine
  in
  [
    ("e1/sim 100 pairs (full machine)", api_cycles ~seed:1 sim_pairs);
    ("e2/timed sim, 4 threads x 50 ops, 5 cpus",
     api_cycles ~processors:5 ~seed:7 e2_body);
    ("e3/drain 8 waiters with signals", wake_cycles ~broadcast:false);
    ("e3/drain 8 waiters with broadcast", wake_cycles ~broadcast:true);
    ("analysis/sim mutex, recording off", analysis_cycles);
    ("analysis/sim mutex, recording on", analysis_cycles);
    (Printf.sprintf "analysis/analyze %d-access stream" analysis_accesses,
     analysis_cycles);
    ("chaos/sim mutex, empty plan", chaos_cycles chaos_empty_plan);
    ("chaos/sim mutex, delay-wakeups plan", chaos_cycles chaos_delay_plan);
  ]

(* Strip the Bechamel group prefix ("threads-repro/") for stable keys. *)
let arm_key name =
  match String.index_opt name '/' with
  | Some i when String.sub name 0 i = "threads-repro" ->
    String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

(* Schema v2 adds a [commit] field (the trajectory's x-axis; Null unless
   --commit=SHA is passed) next to the v1 keys.  `repro bench-diff`
   accepts both versions. *)
let bench_json ~quick ~commit rows =
  let open Obs.Json in
  let record (name, ns) =
    let key = arm_key name in
    Obj
      [
        ("name", String key);
        ("host_us_per_run", match ns with Some v -> Float (v /. 1000.) | None -> Null);
        ( "sim_cycles",
          match List.assoc_opt key arm_sim_cycles with
          | Some c -> Int c
          | None -> Null );
      ]
  in
  Obj
    [
      ("schema_version", Int 2);
      ("commit", (match commit with Some s -> String s | None -> Null));
      ("quick", Bool quick);
      ("scale_jobs", Int scale_jobs);
      ("dpor", dpor_block);
      ("benchmarks", Arr (List.map record rows));
    ]

let rec ensure_dir d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_bench_json ~quick ~commit ~history rows =
  let json = bench_json ~quick ~commit rows in
  ensure_dir "results";
  let oc = open_out "results/BENCH.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote results/BENCH.json";
  (* The trajectory is append-only JSON lines, newest last — the shape
     `repro bench-diff` reads back. *)
  match history with
  | None -> ()
  | Some path ->
    ensure_dir (Filename.dirname path);
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc (Obs.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "appended %s\n" path

(* Flag parsing is deliberately bare: --quick, --commit=SHA,
   --history=FILE (the only flags this binary takes). *)
let flag_value name =
  let p = name ^ "=" in
  Array.fold_left
    (fun acc a ->
      if String.length a > String.length p
         && String.sub a 0 (String.length p) = p
      then Some (String.sub a (String.length p) (String.length a - String.length p))
      else acc)
    None Sys.argv

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let commit = flag_value "--commit" in
  let history = flag_value "--history" in
  let tests =
    Test.make_grouped ~name:"threads-repro"
      [
        e1_multicore_pair;
        e1_stdlib_pair;
        e1_sim_pair;
        e2_timed_sim;
        e3_signal;
        e3_broadcast;
        e7_model_check;
        e9_conformance;
        spec_parse;
        spec_print;
        analysis_plain;
        analysis_recorded;
        analysis_pass;
        chaos_empty;
        chaos_injected;
        scale_seq;
        scale_par;
        explore_dfs;
        explore_dpor;
      ]
  in
  let results = benchmark ~quick tests in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-55s %15s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 72 '-');
  let measured =
    List.map
      (fun (name, ols) ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> Some x
          | _ -> None
        in
        Printf.printf "%-55s %15s\n" name
          (match ns with Some x -> Printf.sprintf "%.1f" x | None -> "n/a");
        (name, ns))
      rows
  in
  write_bench_json ~quick ~commit ~history measured;
  print_endline
    "\n(ns per run; full experiment tables: dune exec bin/repro.exe -- all)"
