module M = Firefly.Machine
module Ops = M.Ops
module Probe = M.Probe

(* Seeded fault-injection scenarios, each designed to be caught by exactly
   one analyzer — the validation suite for [lib/analysis], and a
   demonstration of which detector owns which bug class:

   - [broken_spinlock]: a "lock" that tests-then-sets with two separate
     instructions.  Lockset is fooled (every access consistently "holds"
     the lock); happens-before is not — without a winning interlocked TAS
     there is no acquire edge, so the critical sections stay unordered.
   - [lock_inversion]: two mutexes acquired in opposite orders.  Any
     single run may survive; the lock-order graph has the A→B and B→A
     edges regardless of schedule.
   - [naive_broadcast]: the rejected conditions-as-semaphores design on
     the Broadcast workload.  A woken waiter decrements the waiter count
     after releasing the mutex — an empty candidate lockset.
   - [clean_window]: a correct Mesa-style producer/consumer with its data
     words registered for checking.  Every analyzer must stay silent —
     in particular happens-before certifies the wakeup-waiting window
     (deschedule vs. ready) race-free on the observed runs. *)

type expect = Hb | Lockset | Lock_order | Clean

type scenario = {
  m_name : string;
  m_description : string;
  m_expect : expect;
  m_run : seed:int -> (M.t -> unit) -> M.t;
}

let sim_run ~seed body observe =
  let report =
    Firefly.Interleave.run
      ~strategy:(Firefly.Sched.random seed)
      ~max_steps:500_000
      (fun machine ->
        observe machine;
        ignore (M.spawn_root machine body))
  in
  report.Firefly.Interleave.machine

let broken_spinlock ~seed =
  sim_run ~seed (fun () ->
      let lock = Ops.alloc 1 in
      let counter = Ops.alloc 1 in
      Probe.register_word lock M.W_lock "mutant-spinlock";
      Probe.register_word counter M.W_data "mutant-counter";
      (* Test, then set: two instructions where Acquire needs one TAS. *)
      let acquire () =
        while Ops.read lock <> 0 do
          Ops.tick 1
        done;
        Ops.write lock 1;
        Probe.lock_acquired lock
      in
      let release () =
        Probe.lock_released lock;
        Ops.clear lock
      in
      let worker () =
        for _ = 1 to 5 do
          acquire ();
          Ops.write counter (Ops.read counter + 1);
          release ()
        done
      in
      let t1 = Ops.spawn worker in
      let t2 = Ops.spawn worker in
      Ops.join t1;
      Ops.join t2)

let lock_inversion ~seed =
  sim_run ~seed (fun () ->
      let module S =
        (val Taos_threads.Api.make (Taos_threads.Pkg.create ()))
      in
      let a = S.mutex () in
      let b = S.mutex () in
      let worker first second =
        for _ = 1 to 3 do
          S.acquire first;
          Ops.tick 3;
          S.acquire second;
          Ops.tick 3;
          S.release second;
          S.release first
        done
      in
      let t1 = S.fork (fun () -> worker a b) in
      let t2 = S.fork (fun () -> worker b a) in
      S.join t1;
      S.join t2)

let naive_broadcast ~seed observe =
  match Threads_backend.Backend.find "naive" with
  | Some b -> (
    match (b.Threads_backend.Backend.instrument,
           Threads_backend.Workload.find "broadcast")
    with
    | Threads_backend.Backend.Machine_access f, Some wl ->
      snd (f ~observe ~seed wl)
    | _ -> invalid_arg "naive backend lost its instrumentation")
  | None -> invalid_arg "naive backend not registered"

let clean_window ~seed =
  sim_run ~seed (fun () ->
      let module S =
        (val Taos_threads.Api.make (Taos_threads.Pkg.create ()))
      in
      let m = S.mutex () in
      let nonempty = S.condition () in
      let nonfull = S.condition () in
      let count = Ops.alloc 1 in
      let buf = Ops.alloc 1 in
      Probe.register_word count M.W_data "window.count";
      Probe.register_word buf M.W_data "window.buffer";
      let items = 8 in
      let producer () =
        for i = 1 to items do
          S.with_lock m (fun () ->
              while Ops.read count = 1 do
                S.wait m nonfull
              done;
              Ops.write buf i;
              Ops.write count 1;
              S.signal nonempty)
        done
      in
      let consumer () =
        for _ = 1 to items do
          S.with_lock m (fun () ->
              while Ops.read count = 0 do
                S.wait m nonempty
              done;
              ignore (Ops.read buf);
              Ops.write count 0;
              S.signal nonfull)
        done
      in
      let p = S.fork producer in
      let c = S.fork consumer in
      S.join p;
      S.join c)

let all =
  [
    {
      m_name = "broken-spinlock";
      m_description =
        "spinlock acquiring with separate test and set instead of TAS";
      m_expect = Hb;
      m_run = broken_spinlock;
    };
    {
      m_name = "lock-inversion";
      m_description = "two mutexes acquired in opposite orders by two threads";
      m_expect = Lock_order;
      m_run = lock_inversion;
    };
    {
      m_name = "naive-broadcast";
      m_description =
        "conditions-as-semaphores baseline: waiter count updated outside \
         the mutex";
      m_expect = Lockset;
      m_run = naive_broadcast;
    };
    {
      m_name = "clean-window";
      m_description =
        "correct producer/consumer (control: all analyzers must stay silent)";
      m_expect = Clean;
      m_run = clean_window;
    };
  ]

let find name = List.find_opt (fun s -> s.m_name = name) all
let names () = List.map (fun s -> s.m_name) all
