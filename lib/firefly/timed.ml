module Tid = Threads_util.Tid

type report = {
  verdict : Interleave.verdict;
  machine : Machine.t;
  sim_cycles : int;
  busy_cycles : int;
  context_switches : int;
  steps : int;
}

type proc = {
  mutable clock : int;
  mutable cur : Tid.t;  (* -1 when idle *)
  mutable slice_left : int;
  mutable busy : int;
}

let run ~processors ?(seed = 0) build =
  assert (processors > 0);
  let cost = Cost.default in
  let m = Machine.create () in
  build m;
  let rng = Threads_util.Rng.create (seed lxor 0x7ead) in
  let procs =
    Array.init processors (fun _ ->
        { clock = 0; cur = -1; slice_left = cost.time_slice; busy = 0 })
  in
  let switches = ref 0 in
  let assigned tid =
    let found = ref false in
    for i = 0 to processors - 1 do
      if procs.(i).cur = tid then found := true
    done;
    !found
  in
  (* A waiting thread is a runnable one on no processor. *)
  let waiting = Some (fun tid -> not (assigned tid)) in
  (* The first waiting interrupt-context thread, or -1. *)
  let interrupt_waiting () =
    if Machine.runnable_interrupts m = 0 then -1
    else Machine.nth_runnable m ~from:0 ~intr:true waiting 0
  in
  (* The thread a free processor takes, or -1: interrupt context beats
     everything else; ties go to the lowest tid. *)
  let pick_waiting () =
    match interrupt_waiting () with
    | -1 -> Machine.nth_runnable m ~from:0 ~intr:false waiting 0
    | tid -> tid
  in
  (* The first processor with the smallest clock. *)
  let min_proc () =
    let best = ref 0 in
    for i = 1 to processors - 1 do
      if procs.(i).clock < procs.(!best).clock then best := i
    done;
    procs.(!best)
  in
  let charge_switch p =
    p.clock <- p.clock + cost.context_switch;
    p.busy <- p.busy + cost.context_switch;
    p.slice_left <- cost.time_slice;
    incr switches
  in
  (* The processor policy.  The processor with the smallest clock acts
     until one is about to execute an instruction of its thread: it drops
     a thread that stopped being runnable, preempts its thread for an
     interrupt or at slice expiry, takes the best waiting thread, or,
     idle, catches up with the soonest busy processor so a wakeup
     produced there is picked up promptly.  Some thread is runnable, so
     some thread is waiting or some processor is busy. *)
  let stepping = ref procs.(0) in
  let rec pick () =
    let p = min_proc () in
    if p.cur >= 0 then begin
      let tid = p.cur in
      if not (Machine.is_runnable m tid) then begin
        p.cur <- -1;
        pick ()
      end
      else if
        (interrupt_waiting () >= 0 && not (Machine.is_interrupt m tid))
        || (p.slice_left <= 0 && pick_waiting () >= 0)
      then begin
        (* Preempt: thread goes back to the waiting pool. *)
        p.cur <- -1;
        charge_switch p;
        pick ()
      end
      else begin
        stepping := p;
        tid
      end
    end
    else
      match pick_waiting () with
      | -1 ->
        let target = ref max_int in
        for i = 0 to processors - 1 do
          let q = procs.(i) in
          if q.cur >= 0 && q.clock < !target then target := q.clock
        done;
        (* Jitter of one cycle avoids lock-step artefacts. *)
        p.clock <- max (p.clock + 1) (!target + Threads_util.Rng.int rng 2);
        pick ()
      | next ->
        p.cur <- next;
        charge_switch p;
        pick ()
  in
  let r =
    Interleave.drive ~max_steps:1_000_000
      {
        before = ignore;
        pick;
        after =
          (fun _ ~cost:c ~steps:_ ->
            let p = !stepping in
            p.clock <- p.clock + c;
            p.busy <- p.busy + c;
            p.slice_left <- p.slice_left - max c 1;
            None);
        waiting = (fun () -> false);
      }
      m
  in
  {
    verdict = r.verdict;
    machine = m;
    sim_cycles = Array.fold_left (fun acc p -> max acc p.clock) 0 procs;
    busy_cycles = Array.fold_left (fun acc p -> acc + p.busy) 0 procs;
    context_switches = !switches;
    steps = r.steps;
  }

let utilization r ~processors =
  if r.sim_cycles = 0 then 0.0
  else float_of_int r.busy_cycles /. float_of_int (r.sim_cycles * processors)
