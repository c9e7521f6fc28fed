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
  mutable cur : Tid.t option;
  mutable slice_left : int;
  mutable busy : int;
}

let run ~processors ?(seed = 0) ?(cost = Cost.default) ?(max_steps = 1_000_000)
    build =
  assert (processors > 0);
  let m = Machine.create ~cost () in
  build m;
  let rng = Threads_util.Rng.create (seed lxor 0x7ead) in
  let procs =
    Array.init processors (fun _ ->
        { clock = 0; cur = None; slice_left = cost.time_slice; busy = 0 })
  in
  let switches = ref 0 in
  let assigned tid = Array.exists (fun p -> p.cur = Some tid) procs in
  (* Waiting threads, best first: interrupt context beats priority beats
     (seeded) arrival order. *)
  let pick_waiting rs =
    let score tid =
      ((if Machine.is_interrupt m tid then 1 else 0), Machine.priority m tid)
    in
    List.fold_left
      (fun acc tid ->
        if assigned tid then acc
        else
          match acc with
          | None -> Some tid
          | Some b -> if score tid > score b then Some tid else acc)
      None rs
  in
  let min_proc () =
    let best = ref procs.(0) in
    Array.iter (fun p -> if p.clock < !best.clock then best := p) procs;
    !best
  in
  let charge_switch p =
    p.clock <- p.clock + cost.context_switch;
    p.busy <- p.busy + cost.context_switch;
    p.slice_left <- cost.time_slice;
    incr switches
  in
  let interrupt_waiting rs =
    List.exists (fun tid -> Machine.is_interrupt m tid && not (assigned tid)) rs
  in
  (* The processor policy.  The processor with the smallest clock acts
     until one is about to execute an instruction of its thread: it drops
     a thread that stopped being runnable, preempts its thread for an
     interrupt or at slice expiry, takes the best waiting thread, or,
     idle, catches up with the soonest busy processor so a wakeup
     produced there is picked up promptly.  [rs] is non-empty, so some
     thread is waiting or some processor is busy. *)
  let stepping = ref procs.(0) in
  let rec pick rs =
    let p = min_proc () in
    match p.cur with
    | Some tid -> (
      match Machine.status m tid with
      | Machine.Runnable ->
        if
          (interrupt_waiting rs && not (Machine.is_interrupt m tid))
          || (p.slice_left <= 0 && pick_waiting rs <> None)
        then begin
          (* Preempt: thread goes back to the waiting pool. *)
          p.cur <- None;
          charge_switch p;
          pick rs
        end
        else begin
          stepping := p;
          tid
        end
      | Machine.Blocked | Machine.Finished | Machine.Failed _ ->
        p.cur <- None;
        pick rs)
    | None -> (
      match pick_waiting rs with
      | Some _ as next ->
        p.cur <- next;
        charge_switch p;
        pick rs
      | None ->
        let target =
          Array.fold_left
            (fun acc q -> if q.cur <> None then min acc q.clock else acc)
            max_int procs
        in
        (* Jitter of one cycle avoids lock-step artefacts. *)
        p.clock <- max (p.clock + 1) (target + Threads_util.Rng.int rng 2);
        pick rs)
  in
  let r =
    Interleave.drive ~max_steps
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
