(* A device driver synchronizing with interrupt routines through a
   semaphore — the reason the Threads interface keeps P and V at all:
   "a thread waits for an interrupt routine action by calling P(sem), and
   the interrupt routine unblocks it by calling V(sem)".

   The device posts completions from interrupt context (threads marked
   ~interrupt:true cannot block: the machine faults them if they try).
   The driver thread Ps once per completion and hands data to a consumer
   through an ordinary mutex/condition pair — the two worlds composed.

     dune exec examples/device_driver.exe *)

module Ops = Firefly.Machine.Ops

let completions = 8

let () =
  let delivered = ref [] in
  let report =
    Firefly.Interleave.run
      ~strategy:(Firefly.Sched.prefer_interrupts (Firefly.Sched.random 7))
      (fun machine ->
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let pkg = Taos_threads.Pkg.create () in
               let sem = Taos_threads.Mutex.semaphore pkg in
               Taos_threads.Mutex.p sem;
               (* sem now unavailable: P blocks until the device Vs *)
               let m = Taos_threads.Mutex.create pkg in
               let ready = Taos_threads.Condition.create pkg in
               let inbox = Queue.create () in
               (* device registers: written by interrupt context, read by
                  the driver after P — the V/P pair orders the accesses *)
               let device_data = ref 0 in
               (* Command register: the driver starts one operation at a
                  time and Ps until its completion interrupt — the binary
                  semaphore is a completion handshake, so Vs never
                  coalesce. *)
               let command_pending = ref false in
               let driver () =
                 for _ = 1 to completions do
                   command_pending := true;
                   (* start the operation *)
                   Ops.tick 1;
                   Taos_threads.Mutex.p sem;
                   (* completion interrupt arrived *)
                   let data = !device_data in
                   Taos_threads.Mutex.with_lock m (fun () ->
                       Queue.add data inbox;
                       Taos_threads.Condition.signal ready)
                 done
               in
               let consumer () =
                 for _ = 1 to completions do
                   Taos_threads.Mutex.with_lock m (fun () ->
                       while Queue.is_empty inbox do
                         Taos_threads.Condition.wait ready m
                       done;
                       delivered := Queue.take inbox :: !delivered)
                 done
               in
               let d = Ops.spawn driver in
               let c = Ops.spawn consumer in
               (* The device: completes each started operation with an
                  interrupt at an arbitrary later time.  Interrupt routines
                  only write registers and V. *)
               for i = 1 to completions do
                 while not !command_pending do
                   Ops.yield ()
                 done;
                 command_pending := false;
                 Ops.tick 20;
                 ignore
                   (Firefly.Machine.spawn_root machine ~interrupt:true
                      (fun () ->
                        device_data := i * 100;
                        Taos_threads.Mutex.v sem))
               done;
               Ops.join d;
               Ops.join c)))
  in
  (match report.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed ->
    Printf.printf "driver completed: %d completions delivered: %s\n"
      (List.length !delivered)
      (String.concat ", " (List.rev_map string_of_int !delivered))
  | Firefly.Interleave.Deadlock _ -> print_endline "DEADLOCK (lost interrupt?)"
  | Firefly.Interleave.Step_limit -> print_endline "STEP LIMIT"
  | Firefly.Interleave.Livelock _ -> print_endline "LIVELOCK");

  (* The forbidden alternative: protecting the device registers with a
     mutex from interrupt context.  The machine faults the interrupt
     routine the moment it would have to block. *)
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random 3) (fun machine ->
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let pkg = Taos_threads.Pkg.create () in
               let m = Taos_threads.Mutex.create pkg in
               let worker () =
                 Taos_threads.Mutex.with_lock m (fun () -> Ops.tick 200)
               in
               let w = Ops.spawn worker in
               ignore
                 (Firefly.Machine.spawn_root machine ~interrupt:true
                    (fun () ->
                      Taos_threads.Mutex.with_lock m (fun () ->
                          (* never reached when the mutex is held *)
                          ())));
               Ops.join w)))
  in
  List.iter
    (fun (tid, e) ->
      Printf.printf "interrupt routine t%d faulted: %s\n" tid
        (Printexc.to_string e))
    (Firefly.Machine.failures report.Firefly.Interleave.machine)
