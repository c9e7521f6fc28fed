(** E5 — why condition variables are not semaphores.

    Paper: "The semantics of Wait and Signal could be achieved by
    representing each condition variable as a semaphore ... Unfortunately,
    this implementation does not generalize to Broadcast ... there might be
    arbitrarily many threads in the race (at the semicolon between
    Release(m) and P(c)), and the implementation of Broadcast would have no
    way of indicating that they should all resume."

    We broadcast to k waiters under (a) the Naive semaphore-based condition
    variable and (b) the real eventcount implementation, counting stranded
    waiters across seeds; then the exhaustive explorer exhibits that the
    naive scheme can strand a waiter even with just two of them. *)

module Table = Threads_util.Table
module Ops = Firefly.Machine.Ops

let seeds = 400

(* Returns the number of waiters left blocked forever. *)
let naive_run ~seed ~waiters:k =
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed) (fun machine ->
        ignore
          (Firefly.Machine.spawn_root machine (fun () ->
               let pkg = Taos_threads.Pkg.create () in
               let m = Taos_threads.Mutex.create pkg in
               let c = Taos_threads.Naive.create pkg in
               let flag = ref false in
               let waiter () =
                 Taos_threads.Mutex.with_lock m (fun () ->
                     while not !flag do
                       Taos_threads.Naive.wait c m
                     done)
               in
               let ws = List.init k (fun _ -> Ops.spawn waiter) in
               Taos_threads.Mutex.with_lock m (fun () -> flag := true);
               Taos_threads.Naive.broadcast c;
               List.iter Ops.join ws)))
  in
  match report.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed -> 0
  | Firefly.Interleave.Deadlock blocked ->
    (* main + stranded waiters are blocked; don't count main *)
    max 0 (List.length blocked - 1)
  | Firefly.Interleave.Step_limit | Firefly.Interleave.Livelock _ -> -1

let eventcount_run ~seed ~waiters:k =
  let report =
    Taos_threads.Api.run ~seed (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = S.mutex () in
        let c = S.condition () in
        let flag = ref false in
        let waiter () =
          S.with_lock m (fun () ->
              while not !flag do
                S.wait m c
              done)
        in
        let ws = List.init k (fun _ -> S.fork waiter) in
        S.with_lock m (fun () -> flag := true);
        S.broadcast c;
        List.iter S.join ws)
  in
  match report.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed -> 0
  | Firefly.Interleave.Deadlock blocked -> max 0 (List.length blocked - 1)
  | Firefly.Interleave.Step_limit | Firefly.Interleave.Livelock _ -> -1

let sweep run ~waiters =
  let runs_with_stranding = ref 0 and total_stranded = ref 0 in
  for seed = 0 to seeds - 1 do
    let s = run ~seed ~waiters in
    if s > 0 then begin
      incr runs_with_stranding;
      total_stranded := !total_stranded + s
    end
  done;
  (!runs_with_stranding, !total_stranded)

(* Exhaustive exploration needs a finite state space; the spin-lock's
   test-and-set retry chains make the Firefly backend unbounded, so we
   explore the co-routine backend (every action is one instruction, every
   block is a deschedule) running the same naive scheme: the explore
   catalogue's naive-broadcast program. *)
let exhaustive_naive () =
  let scenario = Option.get (Explore_scenarios.find "naive-broadcast") in
  Firefly.Explore.explore ~max_preemptions:2 ~stop_at_first:true
    ~max_depth:scenario.max_depth ~max_runs:50_000 ~build:scenario.build
    (fun outcome ->
      match outcome.Firefly.Explore.verdict with
      | Firefly.Interleave.Deadlock _ -> Some "stranded waiter found"
      | Firefly.Interleave.Completed | Firefly.Interleave.Step_limit
      | Firefly.Interleave.Livelock _ ->
        None)

let run () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E5: Broadcast to k waiters, stranded threads over %d seeds" seeds)
      [ "waiters"; "naive: runs stranding"; "naive: threads stranded";
        "eventcount: runs stranding" ]
  in
  List.iter
    (fun k ->
      let n_runs, n_threads = sweep naive_run ~waiters:k in
      let e_runs, _ = sweep eventcount_run ~waiters:k in
      Table.add_row t
        [
          Table.cell_int k;
          Table.cell_int n_runs;
          Table.cell_int n_threads;
          Table.cell_int e_runs;
        ])
    [ 2; 4; 8 ];
  Table.print t;
  let found, stats = exhaustive_naive () in
  Printf.printf
    "Delay-bounded systematic search (<=2 preemptions), naive scheme, 2 waiters: %s \
     (%d terminal schedules, %d truncated, %d replayed steps)\n"
    (match found with
    | msg :: _ -> msg
    | [] -> "no stranding found (unexpected)")
    (stats.Firefly.Explore.executions - stats.Firefly.Explore.dpor_truncated)
    stats.Firefly.Explore.dpor_truncated stats.Firefly.Explore.dpor_steps;
  print_endline
    "Shape check: the semaphore-based scheme strands waiters under\n\
     Broadcast (and exhaustively must); the eventcount implementation\n\
     never does."

let experiment =
  {
    Exp.id = "E5";
    title = "Semaphore-based condition variables fail Broadcast";
    claim =
      "Representing a condition variable as a semaphore does not \
       generalize to Broadcast: arbitrarily many threads can be in the \
       race between Release(m) and P(c) (Implementation).";
    run;
  }
