(** E10 — semaphores are required for interrupt routines.

    Paper: "an interrupt routine cannot protect shared data with a mutex —
    because the interrupt might have pre-empted a thread in a critical
    section protected by that mutex — and using Wait and Signal ...
    requires use of an associated mutex.  Instead, a thread waits for an
    interrupt routine action by calling P(sem), and the interrupt routine
    unblocks it by calling V(sem)."

    A simulated device raises interrupts that V a semaphore; a driver
    thread collects them with P.  Across thousands of seeds no V is lost
    (the semaphore's single bit covers the race).  Then the anti-pattern:
    an interrupt routine that calls Acquire on a mutex dies attempting to
    block whenever the mutex is held — the machine enforces the paper's
    prohibition. *)

module Table = Threads_util.Table
module Ops = Firefly.Machine.Ops

let seeds = 2000
let interrupts_per_run = 5

(* One device interrupt = one interrupt-context thread performing V.
   [prefer] schedules interrupt threads with absolute priority, modelling
   an interrupt that preempts the only CPU; since our Nub does not mask
   interrupts while holding the spin-lock, that mode can livelock — the
   very reason the real Nub raises the interrupt priority level around
   spin-lock sections.  The default mode models the interrupt running on
   another processor.  [~certify:true] ends a livelocked run with a
   certified [Livelock] verdict instead of running it out to the step
   bound. *)
let pv_run ?(certify = false) ?(prefer = false) ~seed () =
  let strategy =
    if prefer then Firefly.Sched.prefer_interrupts (Firefly.Sched.random seed)
    else Firefly.Sched.random seed
  in
  let report =
    Firefly.Interleave.run ~max_steps:200_000 ~certify ~strategy
      (fun machine ->
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let pkg = Taos_threads.Pkg.create () in
               let sem = Taos_threads.Mutex.semaphore pkg in
               (* The semaphore starts unavailable: nothing to consume
                  until the device raises an interrupt. *)
               Taos_threads.Mutex.p sem;
               (* One operation in flight at a time (a binary semaphore is
                  a completion handshake, not a counter). *)
               let command_pending = ref false in
               let driver () =
                 for _ = 1 to interrupts_per_run do
                   command_pending := true;
                   Ops.tick 1;
                   Taos_threads.Mutex.p sem
                 done
               in
               let d = Ops.spawn driver in
               for i = 1 to interrupts_per_run do
                 (* Device: complete each started operation with an
                    interrupt at an arbitrary moment; the handler runs in
                    interrupt context (cannot block) and only calls V. *)
                 while not !command_pending do
                   Ops.yield ()
                 done;
                 command_pending := false;
                 Ops.tick (1 + (i * 3));
                 ignore
                   (Firefly.Machine.spawn_root machine ~interrupt:true
                      (fun () -> Taos_threads.Mutex.v sem))
               done;
               Ops.join d)))
  in
  report

(* An interrupt routine that tries to Acquire a mutex held by the thread
   it preempted: the machine faults it the moment it must block.  When it
   dies holding the Nub spin-lock, the worker spins on that lock forever —
   the same livelock as the preempting mode, with a dead holder. *)
let anti_pattern_run ?(certify = false) ~seed () =
  Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
    ~certify (fun machine ->
      ignore
        (Firefly.Machine.spawn_root machine (fun () ->
             let pkg = Taos_threads.Pkg.create () in
             let m = Taos_threads.Mutex.create pkg in
             let worker () =
               Taos_threads.Mutex.with_lock m (fun () -> Ops.tick 50)
             in
             let w = Ops.spawn worker in
             (* interrupt-context thread doing the forbidden thing *)
             ignore
               (Firefly.Machine.spawn_root machine ~interrupt:true (fun () ->
                    Taos_threads.Mutex.with_lock m (fun () -> ())));
             Ops.join w)))

let anti_pattern_runs = 200

(* Faulted runs, and the seeds of runs that hit the step bound uncertified. *)
let anti_pattern () =
  let failures = ref 0 and step_limited = ref [] in
  for seed = 0 to anti_pattern_runs - 1 do
    let report = anti_pattern_run ~certify:true ~seed () in
    let machine = report.Firefly.Interleave.machine in
    if
      List.exists
        (fun (tid, _) -> Firefly.Machine.is_interrupt machine tid)
        (Firefly.Machine.failures machine)
    then incr failures;
    if report.Firefly.Interleave.verdict = Firefly.Interleave.Step_limit then
      step_limited := seed :: !step_limited
  done;
  (!failures, List.rev !step_limited)

(* A run that ends in [Step_limit] despite [certify] is a livelock the
   certificate could not prove (or a run that is merely long): report it
   on its own line rather than counting it as livelocked. *)
let print_step_limited label = function
  | [] -> ()
  | seeds ->
    Printf.printf "%s: %d run(s) hit the step bound uncertified, seeds %s\n"
      label (List.length seeds)
      (String.concat ", " (List.map string_of_int seeds))

let run () =
  let sweep ~prefer =
    let lost = ref 0 and livelocked = ref 0 and faulted = ref 0 in
    let step_limited = ref [] in
    for seed = 0 to seeds - 1 do
      let report = pv_run ~certify:true ~prefer ~seed () in
      match report.Firefly.Interleave.verdict with
      | Firefly.Interleave.Completed ->
        if Firefly.Machine.failures report.Firefly.Interleave.machine <> []
        then incr faulted
      | Firefly.Interleave.Deadlock _ -> incr lost
      | Firefly.Interleave.Livelock _ -> incr livelocked
      | Firefly.Interleave.Step_limit -> step_limited := seed :: !step_limited
    done;
    (!lost, !livelocked, !faulted, List.rev !step_limited)
  in
  let lost, livelocked, faulted, limited = sweep ~prefer:false in
  let p_lost, p_livelocked, p_faulted, p_limited = sweep ~prefer:true in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E10: device interrupts via V(sem), %d runs x %d interrupts"
           seeds interrupts_per_run)
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "interrupt scheduling"; "lost V"; "livelocked"; "faulted" ]
  in
  Table.add_row t
    [ "other processor (random)"; Table.cell_int lost;
      Table.cell_int livelocked; Table.cell_int faulted ];
  Table.add_row t
    [ "preempts the CPU (no IPL masking)"; Table.cell_int p_lost;
      Table.cell_int p_livelocked; Table.cell_int p_faulted ];
  Table.print t;
  print_step_limited "other processor (random)" limited;
  print_step_limited "preempts the CPU" p_limited;
  print_endline
    "The livelocks in the preempting mode are the interrupt spinning on\n\
     the Nub spin-lock held by the thread it preempted - the reason the\n\
     real Nub raises the interrupt priority level around its spin-lock\n\
     sections.  No V is ever lost in either mode.";
  let faulted, step_limited = anti_pattern () in
  let t2 =
    Table.create ~title:"E10b: mutex inside an interrupt routine (forbidden)"
      ~aligns:[ Table.Left; Table.Right ]
      [ "metric"; "value" ]
  in
  Table.add_row t2 [ "runs"; Table.cell_int anti_pattern_runs ];
  Table.add_row t2
    [ "interrupt routine faulted trying to block"; Table.cell_int faulted ];
  Table.print t2;
  print_step_limited "E10b" step_limited;
  print_endline
    "Shape check: P/V never loses a device interrupt; an interrupt routine\n\
     that reaches for a mutex faults whenever the mutex is contended —\n\
     semaphores are required, as the paper says."

let experiment =
  {
    Exp.id = "E10";
    title = "Interrupt synchronization needs semaphores";
    claim =
      "Semaphores are required for synchronizing with interrupt routines: \
       an interrupt routine cannot protect shared data with a mutex \
       (Informal Description).";
    run;
  }
