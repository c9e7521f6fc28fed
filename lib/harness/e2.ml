(** E2 — contention sweep on the 5-processor timed simulation.

    Paper: the user-space code exists "to optimize most cases where the
    synchronization action will not cause the thread to block" — under no
    contention the Nub is never called; under contention threads queue and
    deschedule.  We sweep thread counts on P=5 processors (the Firefly's
    CPU count) and report throughput and where the time goes. *)

module Table = Threads_util.Table

let processors = 5
let ops_per_thread = 400

(* One configuration, with [observe] subscribed to its machine. *)
let run_observed observe ~threads ~cs_len ~think_len =
  let report =
    Firefly.Timed.run ~processors ~seed:(threads * 7919) (fun machine ->
        observe machine;
        Taos_threads.Api.build
          (fun sync ->
            let module S =
              (val sync : Taos_threads.Sync_intf.SYNC
                 with type thread = Threads_util.Tid.t)
            in
            let module Ops = Firefly.Machine.Ops in
            let m = S.mutex () in
            let worker () =
              for _ = 1 to ops_per_thread do
                S.acquire m;
                Ops.tick cs_len;
                S.release m;
                Ops.tick think_len
              done
            in
            let ts = List.init threads (fun _ -> S.fork worker) in
            List.iter S.join ts)
          machine)
  in
  let machine = report.Firefly.Timed.machine in
  let total_ops = threads * ops_per_thread in
  let cycles = report.Firefly.Timed.sim_cycles in
  let throughput =
    float_of_int total_ops /. (float_of_int cycles *. Firefly.Cost.us_per_cycle)
    *. 1000.0
  in
  let per_op counter =
    float_of_int (Firefly.Machine.counter machine counter)
    /. float_of_int total_ops
  in
  ( report,
    throughput,
    per_op "nub.acquire" +. per_op "nub.release",
    per_op "spin.iterations" )

let run_config = run_observed ignore

let run () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E2: mutex contention, P=%d processors, %d ops/thread (cs=20 \
            cycles, think=80 cycles)"
           processors ops_per_thread)
      [ "threads"; "ops/ms (sim)"; "nub entries/op"; "spin iters/op";
        "ctx switches"; "utilization" ]
  in
  let contended = Obs.Instrument.create () in
  List.iter
    (fun threads ->
      let observe =
        if threads = 8 then Obs.Instrument.record contended else ignore
      in
      let report, throughput, nub, spin =
        run_observed observe ~threads ~cs_len:20 ~think_len:80
      in
      Table.add_row t
        [
          Table.cell_int threads;
          Table.cell_float throughput;
          Table.cell_float nub;
          Table.cell_float spin;
          Table.cell_int report.Firefly.Timed.context_switches;
          Table.cell_pct (Firefly.Timed.utilization report ~processors);
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t;
  let t2 =
    Table.create
      ~title:
        "E2b: critical-section length sweep, 8 threads (think = 4 x cs)"
      [ "cs cycles"; "ops/ms (sim)"; "nub entries/op"; "utilization" ]
  in
  List.iter
    (fun cs ->
      let report, throughput, nub, _spin =
        run_config ~threads:8 ~cs_len:cs ~think_len:(4 * cs)
      in
      Table.add_row t2
        [
          Table.cell_int cs;
          Table.cell_float throughput;
          Table.cell_float nub;
          Table.cell_pct (Firefly.Timed.utilization report ~processors);
        ])
    [ 5; 20; 80; 320 ];
  Table.print t2;
  print_endline
    "Shape check: 1 thread -> ~0 nub entries/op (pure fast path); nub\n\
     entries and spinning grow with contention; longer critical sections\n\
     lower throughput but amortize the synchronization cost (fewer nub\n\
     entries per op matter less).";
  Exp.print_metrics
    ~header:"--- observability (8 threads, cs=20, think=80) ---" contended

let experiment =
  {
    Exp.id = "E2";
    title = "Mutex contention sweep (timed, 5 CPUs)";
    claim =
      "The user code avoids the overhead of calling the Nub in most cases \
       where the action will not cause the thread to block (Implementation).";
    run;
  }
