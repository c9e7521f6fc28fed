(* Causal profiler: the invariants the profile pipeline is sold on.

   - The critical path tiles the run: step durations sum exactly to the
     makespan on every backend/workload/seed combination (the backward
     walk crosses wake edges but never skips or double-counts cycles).
   - On a serial workload the path is trivial: one thread, no blocked or
     scheduler-induced cycles anywhere on the path.
   - The wait-for graph is acyclic on the conforming backends (no seed
     manufactures a deadlock that is not there), and the lock-inversion
     mutant produces a genuine cycle snapshot on some schedule.
   - Profiling is free: a profiled run is cycle- and schedule-identical
     to the unprofiled run of the same seed, also with every other
     stream consumer on the same machine (the acceptance criterion that
     makes the profiler causal rather than observational). *)

module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module P = Obs.Profile
module M = Firefly.Machine

let backend name =
  match Bk.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %s not registered" name

let workload name =
  match Wl.find name with
  | Some w -> w
  | None -> Alcotest.failf "workload %s not registered" name

(* Profile a run with a fresh recorder subscribed. *)
let profile run =
  let r = P.recorder () in
  P.of_run r (run (P.record r))

(* A profiled run of [wl] on [b]: the outcome and the run's profile. *)
let profiled b ~seed wl =
  match b.Bk.instrument with
  | Bk.Machine_access f ->
    let r = P.recorder () in
    let outcome, machine = f ~observe:(P.record r) ~seed wl in
    (outcome, P.of_run r machine)
  | _ -> Alcotest.failf "backend %s has no machine to profile" b.Bk.name

(* ---------------------------------------------------------------- *)

let test_critpath_tiles_makespan () =
  List.iter
    (fun bname ->
      let b = backend bname in
      List.iter
        (fun wname ->
          let wl = workload wname in
          if Bk.supports b wl then
            for seed = 1 to 3 do
              let _, p = profiled b ~seed wl in
              Alcotest.(check int)
                (Printf.sprintf "%s/%s seed %d: critpath total = makespan"
                   bname wname seed)
                p.P.makespan p.P.critpath.Obs.Critpath.total;
              (* steps tile [0, makespan]: chronological and abutting *)
              let rec tiles at = function
                | [] -> at = p.P.makespan
                | s :: rest ->
                  s.Obs.Critpath.s_t0 = at
                  && s.Obs.Critpath.s_t1 >= at
                  && tiles s.Obs.Critpath.s_t1 rest
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s seed %d: steps abut" bname wname seed)
                true
                (tiles 0 p.P.critpath.Obs.Critpath.steps)
            done)
        [ "mutex"; "condvar"; "semaphore" ])
    [ "sim"; "uniproc"; "naive"; "hoare" ]

let test_serial_critpath () =
  let p =
    profile (fun observe ->
        (Firefly.Interleave.run ~strategy:(Firefly.Sched.random 1)
           (fun machine ->
             observe machine;
             ignore
               (M.spawn_root machine (fun () ->
                    M.Ops.tick 50;
                    M.Ops.tick 25))))
          .Firefly.Interleave.machine)
  in
  Alcotest.(check int) "serial: total = makespan" p.P.makespan
    p.P.critpath.Obs.Critpath.total;
  let run, _spin, sched, blocked =
    List.fold_left
      (fun (r, s, d, b) st ->
        Obs.Critpath.
          (r + st.s_run, s + st.s_spin, d + st.s_sched, b + st.s_blocked))
      (0, 0, 0, 0)
      p.P.critpath.Obs.Critpath.steps
  in
  Alcotest.(check int) "serial: path is pure running" p.P.makespan run;
  Alcotest.(check int) "serial: no scheduler wait" 0 sched;
  Alcotest.(check int) "serial: no lock wait" 0 blocked

let test_waitfor_acyclic_clean () =
  List.iter
    (fun bname ->
      let b = backend bname in
      let wl = workload "mutex" in
      for seed = 1 to 10 do
        let outcome, p = profiled b ~seed wl in
        (match outcome.Bk.verdict with
        | Bk.Completed -> ()
        | v ->
          Alcotest.failf "%s/mutex seed %d: expected completion, got %a"
            bname seed Bk.pp_verdict v);
        Alcotest.(check int)
          (Printf.sprintf "%s/mutex seed %d: no wait-for cycles" bname seed)
          0
          (List.length p.P.waitfor.Obs.Waitfor.cycles);
        Alcotest.(check int)
          (Printf.sprintf "%s/mutex seed %d: no residual waiters" bname seed)
          0
          (List.length p.P.waitfor.Obs.Waitfor.final)
      done)
    [ "sim"; "uniproc" ]

let test_lock_inversion_cycle () =
  let mutant =
    match Threads_analysis.Mutants.find "lock-inversion" with
    | Some m -> m
    | None -> Alcotest.fail "lock-inversion mutant missing"
  in
  (* The inversion is schedule-dependent; scan seeds until one deadlocks
     and check the wait-for snapshot captured the cycle at formation. *)
  let found = ref None in
  let seed = ref 1 in
  while !found = None && !seed <= 50 do
    let p = profile (mutant.Threads_analysis.Mutants.m_run ~seed:!seed) in
    (match p.P.waitfor.Obs.Waitfor.cycles with
    | c :: _ -> found := Some (!seed, c)
    | [] -> ());
    incr seed
  done;
  match !found with
  | None ->
    Alcotest.fail "no seed in 1..50 produced a wait-for cycle snapshot"
  | Some (_, c) ->
    let members = c.Obs.Waitfor.c_members in
    Alcotest.(check bool) "cycle has >= 2 members" true
      (List.length members >= 2);
    (* Every member blocked on an object whose owner is the next member:
       the snapshot is a genuine hold-and-wait chain. *)
    List.iter
      (fun e ->
        match e.Obs.Waitfor.w_owner with
        | Some _ -> ()
        | None -> Alcotest.fail "cycle member with unknown owner")
      members

let test_profiling_is_free () =
  List.iter
    (fun bname ->
      let b = backend bname in
      List.iter
        (fun wname ->
          let wl = workload wname in
          if Bk.supports b wl then begin
            let plain = b.Bk.run ~seed:5 wl in
            let prof, p = profiled b ~seed:5 wl in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: same verdict" bname wname)
              true
              (plain.Bk.verdict = prof.Bk.verdict);
            Alcotest.(check (option string))
              (Printf.sprintf "%s/%s: same observable" bname wname)
              plain.Bk.observable prof.Bk.observable;
            Alcotest.(check (option int))
              (Printf.sprintf "%s/%s: same step count" bname wname)
              plain.Bk.steps prof.Bk.steps;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: profile stream non-empty" bname wname)
              true
              (p.P.event_count > 0)
          end)
        [ "mutex"; "condvar"; "broadcast" ])
    [ "sim"; "uniproc"; "hoare" ];
  (* the profile fold beside every other stream consumer on one machine *)
  List.iter
    (fun bname ->
      List.iter
        (fun wname ->
          Test_analysis.check_consumers_agree ~seed:5 bname (workload wname))
        [ "condvar"; "broadcast" ])
    [ "sim"; "uniproc" ]

let test_render_deterministic () =
  let b = backend "sim" in
  let wl = workload "mutex" in
  let once () =
    let _, p = profiled b ~seed:1 wl in
    (P.render p, P.folded p, Obs.Json.to_string (P.to_json p))
  in
  let r1, f1, j1 = once () in
  let r2, f2, j2 = once () in
  Alcotest.(check string) "table deterministic" r1 r2;
  Alcotest.(check string) "folded deterministic" f1 f2;
  Alcotest.(check string) "json deterministic" j1 j2;
  (* folded lines are "stack cycles" with cycle counts summing to the
     total thread-lifetime cycles, all positive *)
  String.split_on_char '\n' f1
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "folded line lacks a count: %s" line
         | Some i ->
           let n =
             int_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
           in
           (match n with
           | Some n when n > 0 -> ()
           | _ -> Alcotest.failf "folded count not positive: %s" line));
  (* json reports the same critical-path total as the typed profile *)
  let j = Obs.Json.of_string j1 in
  (match Obs.Json.member (Obs.Json.member j "critical_path") "total" with
  | Obs.Json.Int n ->
    let _, p = profiled b ~seed:1 wl in
    Alcotest.(check int) "json total = makespan" p.P.makespan n
  | _ -> Alcotest.fail "critical_path.total missing")

let suite =
  ( "profile",
    [
      Alcotest.test_case "critical path tiles the makespan" `Quick
        test_critpath_tiles_makespan;
      Alcotest.test_case "serial workload: pure-running path" `Quick
        test_serial_critpath;
      Alcotest.test_case "wait-for acyclic on clean backends (10 seeds)"
        `Quick test_waitfor_acyclic_clean;
      Alcotest.test_case "lock-inversion mutant yields a cycle snapshot"
        `Quick test_lock_inversion_cycle;
      Alcotest.test_case "profiled runs are cycle-identical" `Quick
        test_profiling_is_free;
      Alcotest.test_case "renderings deterministic, folded well-formed"
        `Quick test_render_deterministic;
    ] )
