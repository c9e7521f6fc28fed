(** E1 — the uncontended fast path.

    Paper: "In this case an Acquire-Release pair executes a total of 5
    instructions, taking 10 microseconds on a MicroVAX II.  This code is
    compiled entirely in-line."

    We run a single simulated thread through uncontended LOCK clauses and
    count exactly what the pair costs in simulated instructions and cycles
    (the cycle model is calibrated at 2 μs/cycle, the paper's implied
    rate), with the Nub-entry counters proving the Nub was never entered.
    The same loop on the real-hardware backend gives nanoseconds per pair
    on a modern machine, next to [Stdlib.Mutex] for context. *)

module Table = Threads_util.Table

let iterations = 10_000

(* The run's statistics go to [reg]. *)
let sim_numbers ~fast_path reg =
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random 1) (fun machine ->
        Obs.Instrument.record reg machine;
        Taos_threads.Api.build ~fast_path
          (fun sync ->
            let module S =
              (val sync : Taos_threads.Sync_intf.SYNC
                 with type thread = Threads_util.Tid.t)
            in
            let m = S.mutex () in
            for _ = 1 to iterations do
              S.acquire m;
              S.release m
            done)
          machine)
  in
  let machine = report.Firefly.Interleave.machine in
  let instr =
    float_of_int (Firefly.Machine.total_instructions machine)
    /. float_of_int iterations
  in
  let cycles =
    float_of_int (Firefly.Machine.total_cycles machine)
    /. float_of_int iterations
  in
  let nub =
    Firefly.Machine.counter machine "nub.acquire"
    + Firefly.Machine.counter machine "nub.release"
  in
  (instr, cycles, Firefly.Cost.us_per_cycle *. cycles, nub)

let multicore_ns () =
  let module S = Threads_multicore.Multicore.Sync in
  let m = S.mutex () in
  let n = 2_000_000 in
  (* warm up *)
  for _ = 1 to 10_000 do
    S.acquire m;
    S.release m
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    S.acquire m;
    S.release m
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let stdlib_m = Mutex.create () in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to n do
    Mutex.lock stdlib_m;
    Mutex.unlock stdlib_m
  done;
  let dt_std = Unix.gettimeofday () -. t1 in
  (dt /. float_of_int n *. 1e9, dt_std /. float_of_int n *. 1e9)

let run () =
  let reg = Obs.Instrument.create () in
  let instr, cycles, us, nub = sim_numbers ~fast_path:true reg in
  let t =
    Table.create ~title:"E1a: uncontended Acquire/Release pair (simulator)"
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "metric"; "measured"; "paper (MicroVAX II)" ]
  in
  Table.add_row t
    [ "instructions / pair"; Table.cell_float ~decimals:1 instr; "5" ];
  Table.add_row t [ "cycles / pair"; Table.cell_float ~decimals:1 cycles; "-" ];
  Table.add_row t
    [ "microseconds / pair"; Table.cell_float ~decimals:1 us; "10" ];
  Table.add_row t [ "Nub entries (total)"; Table.cell_int nub; "0" ];
  Table.print t;
  let ours, stdlib = multicore_ns () in
  let t2 =
    Table.create ~title:"E1b: same pair on real hardware (OCaml 5 domains)"
      ~aligns:[ Table.Left; Table.Right ]
      [ "implementation"; "ns / pair" ]
  in
  Table.add_row t2 [ "this package (TAS fast path)"; Table.cell_float ours ];
  Table.add_row t2 [ "Stdlib.Mutex"; Table.cell_float stdlib ];
  Table.print t2;
  print_endline
    "Shape check: in-line fast path, zero Nub entries; simulated pair cost\n\
     within 2x of the paper's 5 instructions / 10 us.";
  Exp.print_metrics
    ~header:"--- observability (uncontended fast-path run) ---" reg

let experiment =
  {
    Exp.id = "E1";
    title = "Uncontended Acquire/Release fast path";
    claim =
      "An Acquire-Release pair executes a total of 5 instructions, taking \
       10 microseconds on a MicroVAX II (Implementation).";
    run;
  }
