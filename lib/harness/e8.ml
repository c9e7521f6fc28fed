(** E8 — Mesa-style hints vs Hoare-style guarantees.

    Paper: "Return from Wait is only a hint that must be confirmed ...  By
    contrast, with Hoare's condition variables threads are guaranteed that
    the predicate is true on return from Wait.  Our looser specification
    reduces the obligations of the signalling thread and leads to a more
    efficient implementation on our multiprocessor."

    Producer/consumer over a bounded buffer under both semantics: Mesa
    waiters re-evaluate their predicate in a loop (we count re-checks and
    spurious wakeups); Hoare signallers hand over the monitor and suspend
    (we count the forced context switches).  The trade the paper describes
    is visible directly. *)

module Table = Threads_util.Table
module Ops = Firefly.Machine.Ops

let items = 60
let consumers = 3

type metrics = {
  rechecks : int;  (** predicate evaluations beyond the first, per wait *)
  spurious : int;  (** wakeups that found the predicate still false *)
  switches : int;  (** signaller-side forced context switches (Hoare) *)
  steps : int;
}

let mesa ~seed =
  let rechecks = ref 0 and spurious = ref 0 in
  let report =
    Taos_threads.Api.run ~seed (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = S.mutex () in
        let nonempty = S.condition () in
        let buf = ref 0 in
        let consumer () =
          for _ = 1 to items / consumers do
            S.with_lock m (fun () ->
                let waited = ref false in
                while !buf = 0 do
                  if !waited then incr spurious;
                  S.wait m nonempty;
                  waited := true;
                  incr rechecks
                done;
                decr buf)
          done
        in
        let producer () =
          for _ = 1 to items do
            S.with_lock m (fun () ->
                incr buf;
                (* Broadcast so every consumer re-checks: the Mesa cost
                   model in its least favourable setting. *)
                S.broadcast nonempty)
          done
        in
        let cs = List.init consumers (fun _ -> S.fork consumer) in
        let p = S.fork producer in
        S.join p;
        List.iter S.join cs)
  in
  {
    rechecks = !rechecks;
    spurious = !spurious;
    switches = 0;
    steps = report.Firefly.Interleave.steps;
  }

let hoare ~seed =
  let rechecks = ref 0 and spurious = ref 0 in
  let switches = ref 0 in
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed) (fun machine ->
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let mon = Taos_threads.Hoare.monitor () in
               let nonempty = Taos_threads.Hoare.condition mon in
               let buf = ref 0 in
               let consumer () =
                 for _ = 1 to items / consumers do
                   Taos_threads.Hoare.with_monitor mon (fun () ->
                       (* Hoare guarantee: one check; if false, wait once
                          and the predicate must hold on return. *)
                       if !buf = 0 then begin
                         Taos_threads.Hoare.wait nonempty;
                         incr rechecks;
                         if !buf = 0 then incr spurious
                       end;
                       assert (!buf > 0);
                       decr buf)
                 done
               in
               let producer () =
                 for _ = 1 to items do
                   Taos_threads.Hoare.with_monitor mon (fun () ->
                       incr buf;
                       Taos_threads.Hoare.signal nonempty)
                 done
               in
               let cs = List.init consumers (fun _ -> Ops.spawn consumer) in
               let p = Ops.spawn producer in
               Ops.join p;
               List.iter Ops.join cs;
               switches := Taos_threads.Hoare.switches mon)))
  in
  (match report.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> failwith "E8: hoare run did not complete");
  {
    rechecks = !rechecks;
    spurious = !spurious;
    switches = !switches;
    steps = report.Firefly.Interleave.steps;
  }

let average f =
  let n = 10 in
  let ms = List.init n (fun seed -> f ~seed) in
  let avg g =
    float_of_int (List.fold_left (fun acc m -> acc + g m) 0 ms)
    /. float_of_int n
  in
  (avg (fun m -> m.rechecks), avg (fun m -> m.spurious),
   avg (fun m -> m.switches), avg (fun m -> m.steps))

let run () =
  let m_re, m_sp, m_sw, m_st = average mesa in
  let h_re, h_sp, h_sw, h_st = average hoare in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E8: producer/consumer, %d items, %d consumers (mean of 10 seeds)"
           items consumers)
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "semantics"; "predicate re-checks"; "spurious wakeups";
        "forced switches"; "steps" ]
  in
  Table.add_row t
    [ "Mesa (Threads: Wait is a hint)";
      Table.cell_float m_re; Table.cell_float m_sp;
      Table.cell_float m_sw; Table.cell_float ~decimals:0 m_st ];
  Table.add_row t
    [ "Hoare (signal passes monitor)";
      Table.cell_float h_re; Table.cell_float h_sp;
      Table.cell_float h_sw; Table.cell_float ~decimals:0 h_st ];
  Table.print t;
  print_endline
    "Shape check: Mesa pays re-checks and spurious wakeups; Hoare pays two\n\
     forced context switches per effective signal but never a spurious\n\
     wakeup (the assert in the consumer never fires)."

let experiment =
  {
    Exp.id = "E8";
    title = "Mesa hints vs Hoare guarantees";
    claim =
      "Return from Wait is only a hint that must be confirmed; the looser \
       specification leads to a more efficient implementation than Hoare's \
       guarantee (Informal Description).";
    run;
  }
