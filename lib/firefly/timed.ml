module Tid = Threads_util.Tid

type verdict = Completed | Deadlock of Tid.t list | Cycle_limit

type report = {
  verdict : verdict;
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

let run ~processors ?(seed = 0) ?(cost = Cost.default) ?(max_cycles = 50_000_000)
    build =
  assert (processors > 0);
  let m = Machine.create ~seed ~cost () in
  build m;
  let rng = Threads_util.Rng.create (seed lxor 0x7ead) in
  let procs =
    Array.init processors (fun _ ->
        { clock = 0; cur = None; slice_left = cost.time_slice; busy = 0 })
  in
  let switches = ref 0 in
  let steps = ref 0 in
  let assigned tid = Array.exists (fun p -> p.cur = Some tid) procs in
  (* Waiting threads, best first: interrupt context beats priority beats
     (seeded) arrival order. *)
  let pick_waiting () =
    let waiting =
      List.filter (fun tid -> not (assigned tid)) (Machine.runnable m)
    in
    match waiting with
    | [] -> None
    | _ ->
      let score tid =
        ( (if Machine.is_interrupt m tid then 1 else 0),
          Machine.priority m tid )
      in
      let best =
        List.fold_left
          (fun acc tid ->
            match acc with
            | None -> Some tid
            | Some b -> if score tid > score b then Some tid else acc)
          None waiting
      in
      best
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
  let interrupt_waiting () =
    List.exists
      (fun tid -> Machine.is_interrupt m tid && not (assigned tid))
      (Machine.runnable m)
  in
  let rec loop () =
    if (min_proc ()).clock > max_cycles then Cycle_limit
    else begin
      let p = min_proc () in
      match p.cur with
      | Some tid -> begin
        match Machine.status m tid with
        | Machine.Runnable ->
          let preempt_for_interrupt =
            interrupt_waiting () && not (Machine.is_interrupt m tid)
          in
          if
            preempt_for_interrupt
            || (p.slice_left <= 0 && pick_waiting () <> None)
          then begin
            (* Preempt: thread goes back to the waiting pool. *)
            p.cur <- None;
            charge_switch p;
            loop ()
          end
          else begin
            let c = Machine.step m tid in
            incr steps;
            p.clock <- p.clock + c;
            p.busy <- p.busy + c;
            p.slice_left <- p.slice_left - max c 1;
            loop ()
          end
        | Machine.Blocked | Machine.Finished | Machine.Failed _ ->
          p.cur <- None;
          loop ()
      end
      | None -> begin
        match pick_waiting () with
        | Some tid ->
          p.cur <- Some tid;
          charge_switch p;
          loop ()
        | None ->
          (* Idle: catch up with the busiest-but-soonest processor so a
             wakeup produced by it can be picked up promptly. *)
          let busy_clocks =
            Array.to_list procs
            |> List.filter_map (fun q ->
                   if q.cur <> None then Some q.clock else None)
          in
          (match busy_clocks with
          | [] ->
            if Machine.live m then Deadlock (Machine.blocked m) else Completed
          | cs ->
            let target = List.fold_left min max_int cs in
            (* Jitter of one cycle avoids lock-step artefacts. *)
            p.clock <- max (p.clock + 1) (target + Threads_util.Rng.int rng 2);
            loop ())
      end
    end
  in
  let verdict = loop () in
  let sim_cycles = Array.fold_left (fun acc p -> max acc p.clock) 0 procs in
  let busy_cycles = Array.fold_left (fun acc p -> acc + p.busy) 0 procs in
  {
    verdict;
    machine = m;
    sim_cycles;
    busy_cycles;
    context_switches = !switches;
    steps = !steps;
  }

let utilization r ~processors =
  if r.sim_cycles = 0 then 0.0
  else float_of_int r.busy_cycles /. float_of_int (r.sim_cycles * processors)
