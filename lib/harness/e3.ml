(** E3 — Signal vs Broadcast.

    Paper: "Using Signal is preferable (for efficiency) when only one
    blocked thread can benefit from the change; Broadcast is necessary (for
    correctness) if multiple threads should resume."

    With M parked waiters we measure the signaller-side cost of one Signal
    (wakes one) against one Broadcast (wakes all), and show that M Signals
    are needed to drain what one Broadcast drains. *)

module Table = Threads_util.Table
module Ops = Firefly.Machine.Ops

(* Build M waiters parked on a condition, then run [finale] and return the
   run's spec trace; [observe] subscribes to the machine. *)
let with_parked ?(observe = ignore) m_waiters ~finale =
  let sink = Spec_trace.Sink.create () in
  let (_ : Firefly.Interleave.report) =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random 11) (fun machine ->
        Firefly.Record.trace sink machine;
        observe machine;
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let pkg = Taos_threads.Pkg.create () in
               let m = Taos_threads.Mutex.create pkg in
               let c = Taos_threads.Condition.create pkg in
               let flag = ref false in
               let waiter () =
                 Taos_threads.Mutex.with_lock m (fun () ->
                     while not !flag do
                       Taos_threads.Condition.wait c m
                     done)
               in
               let ws = List.init m_waiters (fun _ -> Ops.spawn waiter) in
               (* Park everyone: poll the queue length cooperatively. *)
               while Taos_threads.Condition.queued c < m_waiters do
                 Ops.yield ()
               done;
               Taos_threads.Mutex.with_lock m (fun () -> flag := true);
               finale m c;
               List.iter Ops.join ws)))
  in
  Spec_trace.Sink.events sink

let signaller_cost ?observe m_waiters ~broadcast =
  let calls = ref 0 in
  let trace =
    with_parked ?observe m_waiters ~finale:(fun _m c ->
        if broadcast then begin
          incr calls;
          Taos_threads.Condition.broadcast c
        end
        else
          (* Signal until everyone is out (each wakes at least one). *)
          let rec drain () =
            if Taos_threads.Condition.queued c > 0 then begin
              incr calls;
              Taos_threads.Condition.signal c;
              drain ()
            end
          in
          begin
            incr calls;
            Taos_threads.Condition.signal c;
            drain ()
          end)
  in
  (!calls, trace)

let run () =
  let t =
    Table.create ~title:"E3: draining M parked waiters"
      [ "waiters"; "signal calls needed"; "broadcast calls"; "signal wakeups/call"; "broadcast wakeups/call" ]
  in
  let representative = Obs.Instrument.create () in
  List.iter
    (fun m ->
      let observe =
        if m = 8 then Obs.Instrument.record representative else ignore
      in
      let sig_calls, sig_trace =
        signaller_cost ~observe m ~broadcast:false
      in
      let bc_calls, bc_trace = signaller_cost m ~broadcast:true in
      (* wakeups = removals recorded in the trace's Signal or Broadcast
         events (each trace has only one kind) *)
      let wakeups trace =
        let removals =
          List.filter_map
            (fun (e : Spec_trace.event) ->
              match e.action with
              | Signal { removed; _ } | Broadcast { removed; _ } ->
                Some (List.length removed)
              | _ -> None)
            trace
        in
        if removals = [] then 0.0
        else
          float_of_int (List.fold_left ( + ) 0 removals)
          /. float_of_int (List.length removals)
      in
      Table.add_row t
        [
          Table.cell_int m;
          Table.cell_int sig_calls;
          Table.cell_int bc_calls;
          Table.cell_float (wakeups sig_trace);
          Table.cell_float (wakeups bc_trace);
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Table.print t;
  print_endline
    "Shape check: Signal wakes ~1/call so draining M waiters takes ~M\n\
     calls; one Broadcast wakes all M (necessary when several should\n\
     resume, e.g. releasing a writer lock to all readers).";
  Exp.print_metrics
    ~header:"--- observability (8 waiters drained by signals) ---"
    representative

let experiment =
  {
    Exp.id = "E3";
    title = "Signal vs Broadcast";
    claim =
      "Signal is preferable (for efficiency) when only one blocked thread \
       can benefit; Broadcast is necessary (for correctness) if multiple \
       threads should resume (Informal Description).";
    run;
  }
