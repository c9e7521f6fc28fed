(* Scale-out verification: the shared-cursor run-matrix executor, the
   domain-parallel crosscheck matrices, and DPOR schedule exploration.

   The load-bearing properties:
   - Matrix results are byte-identical for any worker count (results are
     consumed in index order, errors surface lowest-index-first).
   - DPOR's violation set equals exhaustive DFS's wherever DFS can
     finish, and equals the scenarios' pinned expectations everywhere —
     while exploring orders of magnitude fewer schedules. *)

module Matrix = Threads_runner.Matrix
module Rng = Threads_util.Rng
module Ex = Firefly.Explore
module Sc = Threads_harness.Explore_scenarios
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck

let job_counts = [ 1; 2; 4; 8 ]

(* ---- Matrix.map ---- *)

let test_map_values () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let got = Matrix.map ~jobs ~n (fun i -> (i * 7) + 1) in
          Alcotest.(check (array int))
            (Printf.sprintf "map n=%d jobs=%d" n jobs)
            (Array.init n (fun i -> (i * 7) + 1))
            got)
        [ 0; 1; 3; 17; 100 ])
    job_counts

let test_map_uneven_cells () =
  (* Wildly unbalanced cell costs let workers finish out of order; the
     result must still come back in index order. *)
  let n = 64 in
  let cell i =
    let r = Rng.cell ~base:99 ~index:i in
    let spin = if i mod 7 = 0 then 20_000 else 10 in
    let acc = ref 0 in
    for _ = 1 to spin do
      acc := !acc + Rng.int r 5
    done;
    (i, !acc)
  in
  let seq = Matrix.map ~jobs:1 ~n cell in
  List.iter
    (fun jobs ->
      Alcotest.(check (array (pair int int)))
        (Printf.sprintf "uneven jobs=%d" jobs)
        seq
        (Matrix.map ~jobs ~n cell))
    job_counts

exception Boom of int

let test_map_lowest_error () =
  List.iter
    (fun jobs ->
      match
        Matrix.map ~jobs ~n:50 (fun i ->
            if i = 13 || i = 37 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing cell wins (jobs=%d)" jobs)
          13 i)
    job_counts

(* ---- Matrix.iter_ordered ---- *)

let test_iter_ordered_order () =
  List.iter
    (fun jobs ->
      (* More cells than the in-flight window, so producers must block on
         the consumer's watermark at least once when jobs > 1. *)
      let n = 1000 in
      let seen = ref [] in
      Matrix.iter_ordered ~jobs ~n
        ~f:(fun i -> i * 3)
        ~consume:(fun i v ->
          Alcotest.(check int) "value matches index" (i * 3) v;
          seen := i :: !seen)
        ();
      Alcotest.(check (list int))
        (Printf.sprintf "all cells in order (jobs=%d)" jobs)
        (List.init n (fun i -> i))
        (List.rev !seen))
    job_counts

let test_iter_ordered_error () =
  List.iter
    (fun jobs ->
      let consumed = ref [] in
      (match
         Matrix.iter_ordered ~jobs ~n:40
           ~f:(fun i -> if i >= 20 then raise (Boom i) else i)
           ~consume:(fun i _ -> consumed := i :: !consumed)
           ()
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "first failing cell raised (jobs=%d)" jobs)
          20 i);
      (* Everything before the failing cell was consumed, in order. *)
      Alcotest.(check (list int)) "prefix consumed"
        (List.init 20 (fun i -> i))
        (List.rev !consumed);
      (* A raising consumer stops the workers and its exception reaches
         the caller. *)
      match
        Matrix.iter_ordered ~jobs ~n:1000 ~f:Fun.id
          ~consume:(fun i _ -> if i = 300 then raise (Boom i))
          ()
      with
      | () -> Alcotest.fail "expected the consumer's exception"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "consumer exception raised (jobs=%d)" jobs)
          300 i)
    job_counts

(* ---- per-cell RNG ---- *)

let test_rng_cell_deterministic () =
  let a = Rng.cell ~base:5 ~index:9 and b = Rng.cell ~base:5 ~index:9 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same cell, same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_cell_independent () =
  (* Adjacent cells and adjacent bases must not produce overlapping or
     correlated prefixes. *)
  let streams =
    [ Rng.cell ~base:5 ~index:0; Rng.cell ~base:5 ~index:1;
      Rng.cell ~base:6 ~index:0; Rng.cell ~base:4 ~index:2 ]
  in
  let prefixes =
    List.map (fun r -> List.init 8 (fun _ -> Rng.next r)) streams
  in
  let rec all_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ all_pairs rest
  in
  List.iter
    (fun (xs, ys) ->
      Alcotest.(check bool) "distinct prefixes" true (xs <> ys))
    (all_pairs prefixes)

(* ---- crosscheck matrices: parity across worker counts ---- *)

let summary_fingerprint (s : Cc.summary) =
  ( Cc.verdicts s,
    Cc.observables s,
    Cc.events s,
    Cc.violations s,
    List.map (fun (r : Cc.run) -> r.Cc.seed) s.Cc.runs )

let test_conform_jobs_parity () =
  let b = Option.get (Bk.find "uniproc") in
  let wl = Option.get (Wl.find "condvar") in
  let reference = summary_fingerprint (Cc.conform ~jobs:1 b wl ~seeds:6) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "conform summary identical (jobs=%d)" jobs)
        true
        (summary_fingerprint (Cc.conform ~jobs b wl ~seeds:6) = reference))
    [ 2; 4; 8 ]

let test_diff_jobs_parity () =
  let wl = Option.get (Wl.find "mutex") in
  (* The hardware backend's event counts are timing-dependent (real
     domains) at any worker count; only the simulator-family backends
     promise byte-identical summaries.  For hardware, pin the stable
     contract: verdicts and violations. *)
  let fp summaries =
    List.map
      (fun (s : Cc.summary) ->
        if s.Cc.backend.Bk.real_parallelism then
          (Cc.verdicts s, [], 0, Cc.violations s, [])
        else summary_fingerprint s)
      summaries
  in
  let reference = fp (Cc.diff ~jobs:1 wl ~seeds:2) in
  Alcotest.(check bool) "diff summaries identical (jobs=4)" true
    (fp (Cc.diff ~jobs:4 wl ~seeds:2) = reference)

let chaos_report ~jobs b wl ~plans ~seeds =
  let buf = Buffer.create 4096 in
  let t = Cc.chaos_stream ~jobs ~emit:(Buffer.add_string buf) b wl ~plans ~seeds in
  (Buffer.contents buf, t.Cc.ct_classes, t.Cc.ct_failures)

let test_chaos_stream_parity () =
  let b = Option.get (Bk.find "uniproc") in
  let wl = Option.get (Wl.find "mutex") in
  let reference = chaos_report ~jobs:1 b wl ~plans:3 ~seeds:2 in
  (* The bytes must not depend on the worker count. *)
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "chaos report identical (jobs=%d)" jobs)
        true
        (chaos_report ~jobs b wl ~plans:3 ~seeds:2 = reference))
    [ 2; 4; 8 ]

(* ---- telemetry determinism: observed matrices report identically ---- *)

(* The observatory contract: attaching a fleet/progress sink must leave
   every report byte-identical, and the deterministic telemetry totals
   (cells executed) must equal the matrix size at any worker count. *)
let test_telemetry_reports_identical () =
  let b = Option.get (Bk.find "uniproc") in
  let wl = Option.get (Wl.find "condvar") in
  let bare = summary_fingerprint (Cc.conform ~jobs:1 b wl ~seeds:6) in
  let chaos_bare = chaos_report ~jobs:1 b wl ~plans:3 ~seeds:2 in
  List.iter
    (fun jobs ->
      let p =
        Obs.Fleet.create ~dest:(Obs.Fleet.Custom ignore) ~label:"test" ~jobs
          ~cells:6 ()
      in
      let telemetry = Obs.Fleet.sink p in
      let observed =
        summary_fingerprint (Cc.conform ~telemetry ~jobs b wl ~seeds:6)
      in
      Obs.Fleet.finish p;
      Alcotest.(check bool)
        (Printf.sprintf "telemetered conform identical (jobs=%d)" jobs)
        true (observed = bare);
      Alcotest.(check int)
        (Printf.sprintf "telemetry counted every seed (jobs=%d)" jobs)
        6
        (Obs.Fleet.total_cells (Obs.Fleet.snapshot p));
      let fl = Obs.Fleet.create ~label:"test" ~jobs ~cells:0 () in
      let chaos_observed =
        let buf = Buffer.create 4096 in
        let t =
          Cc.chaos_stream ~telemetry:(Obs.Fleet.sink fl) ~jobs
            ~emit:(Buffer.add_string buf) b wl ~plans:3 ~seeds:2
        in
        (Buffer.contents buf, t.Cc.ct_classes, t.Cc.ct_failures)
      in
      Alcotest.(check bool)
        (Printf.sprintf "telemetered chaos bytes identical (jobs=%d)" jobs)
        true
        (chaos_observed = chaos_bare))
    [ 1; 4; 8 ]

(* The multicore package is one-per-process (global nub, alert tables,
   trace sink); its run entry points serialize on a package mutex so
   parallel matrix cells queue instead of corrupting each other.
   Before that lock, two overlapping traced runs raced reset() against
   a live alert_wait and deadlocked `repro diff --workload=alert
   --jobs=N` a majority of the time. *)
let test_multicore_package_serializes () =
  let module MC = Threads_multicore.Multicore in
  let module S = MC.Sync in
  let body () =
    let m = S.mutex () in
    let c = S.condition () in
    let w =
      S.fork (fun () ->
          try
            S.with_lock m (fun () ->
                while true do
                  S.alert_wait m c
                done)
          with Taos_threads.Sync_intf.Alerted -> ())
    in
    S.alert w;
    S.join w
  in
  let ds =
    List.init 2 (fun _ -> Domain.spawn (fun () -> ignore (MC.traced_run body)))
  in
  List.iter Domain.join ds

(* ---- DPOR vs exhaustive DFS ---- *)

let scenario name = Option.get (Sc.find name)

(* One DPOR search over the whole tree, with no frontier split. *)
let unsplit_dpor (s : Sc.t) =
  Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~split_branches:0
    ~build:s.Sc.build s.Sc.check

(* Where plain DFS can finish, its violation set is the ground truth
   DPOR must reproduce — with far fewer executions.  On wakeup-waiting
   the search sizes are pinned exactly: (DFS executions, DPOR
   executions, sleep-blocked branches, peak depth). *)
let test_dpor_matches_dfs () =
  List.iter
    (fun (name, pinned) ->
      let s = scenario name in
      let dfs_v, dfs_stats =
        Ex.explore ~max_depth:s.Sc.max_depth ~max_runs:500_000
          ~build:s.Sc.build s.Sc.check
      in
      Alcotest.(check bool) (name ^ ": DFS exhausted the tree") true
        dfs_stats.Ex.complete;
      let dpor_v, dpor_stats = unsplit_dpor s in
      Alcotest.(check bool) (name ^ ": DPOR complete") true
        dpor_stats.Ex.complete;
      Alcotest.(check (list string))
        (name ^ ": DPOR and DFS find the same violations")
        dfs_v dpor_v;
      Alcotest.(check (list string))
        (name ^ ": pinned expectation") s.Sc.expect dpor_v;
      let dfs_terminal =
        dfs_stats.Ex.executions - dfs_stats.Ex.dpor_truncated
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: DPOR prunes (%d < %d)" name
           dpor_stats.Ex.executions dfs_terminal)
        true
        (dpor_stats.Ex.executions < dfs_terminal);
      Option.iter
        (fun expected ->
          Alcotest.(check (list int))
            (name ^ ": pinned search sizes")
            expected
            [ dfs_stats.Ex.executions; dpor_stats.Ex.executions; dpor_stats.Ex.sleep_blocked;
              dpor_stats.Ex.peak_depth ])
        pinned)
    [ ("wakeup-waiting", Some [ 21_722; 14; 4; 30 ]); ("hoare-signal", None) ]

(* Every scenario, unsplit and split at the CLI's two branch points:
   the search completes, lands exactly on the pinned expectation (E5's
   two stranding classes, clean alert cancellation, clean disjoint
   locks, ...), and its size is pinned as (executions, sleep-blocked
   branches, scheduler steps, peak depth). *)
let test_dpor_pinned_expectations () =
  List.iter
    (fun (name, unsplit, split2) ->
      let s = scenario name in
      List.iter
        (fun (split, expected) ->
          let v, st =
            Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth
              ~split_branches:split ~build:s.Sc.build s.Sc.check
          in
          let label = Printf.sprintf "%s (split %d)" name split in
          Alcotest.(check bool) (label ^ ": complete") true st.Ex.complete;
          Alcotest.(check (list string))
            (label ^ ": violations") s.Sc.expect v;
          Alcotest.(check (list int))
            (label ^ ": pinned search sizes") expected
            [ st.Ex.executions; st.Ex.sleep_blocked; st.Ex.dpor_steps;
              st.Ex.peak_depth ])
        [ (0, unsplit); (2, split2) ])
    [ ("wakeup-waiting", [ 14; 4; 372; 30 ], [ 16; 7; 408; 30 ]);
      ("alert-cancel", [ 24; 11; 709; 35 ], [ 38; 18; 1_130; 35 ]);
      ( "naive-broadcast",
        [ 5_697; 3_864; 343_724; 73 ],
        [ 5_715; 3_894; 344_287; 73 ] );
      ("hoare-signal", [ 17; 5; 357; 25 ], [ 18; 7; 381; 25 ]);
      ("disjoint-locks", [ 119; 168; 4_234; 48 ], [ 119; 169; 4_254; 48 ]) ]

(* Splitting the tree at any depth finds exactly what one unsplit search
   finds; where DFS can finish, that is exhaustive DFS's set ("dpor
   matches exhaustive dfs"). *)
let test_dpor_split_sound () =
  List.iter
    (fun (s : Sc.t) ->
      let reference, _ = unsplit_dpor s in
      List.iter
        (fun split ->
          let v, st =
            Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth
              ~split_branches:split ~build:s.Sc.build s.Sc.check
          in
          let label = Printf.sprintf "%s (split %d)" s.Sc.name split in
          Alcotest.(check bool) (label ^ ": complete") true st.Ex.complete;
          Alcotest.(check (list string))
            (label ^ ": same violations as unsplit") reference v)
        [ 1; 2; 3 ])
    Sc.all

let test_dpor_parallel_jobs_parity () =
  List.iter
    (fun name ->
      let s = scenario name in
      let run jobs =
        Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~split_branches:2
          ~jobs ~build:s.Sc.build s.Sc.check
      in
      let reference = run 1 in
      let _, ref_stats = reference in
      Alcotest.(check bool) (name ^ ": complete") true ref_stats.Ex.complete;
      let ref_v, _ = reference in
      Alcotest.(check (list string))
        (name ^ ": split search agrees with expectation") s.Sc.expect ref_v;
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: identical result (jobs=%d)" name jobs)
            true
            (run jobs = reference))
        [ 2; 4; 8 ])
    (List.map (fun (s : Sc.t) -> s.Sc.name) Sc.all)

let test_dpor_deterministic () =
  let s = scenario "wakeup-waiting" in
  let run () = unsplit_dpor s in
  Alcotest.(check bool) "two runs, same everything" true (run () = run ())

let suite =
  ( "runner-scaleout",
    [
      Alcotest.test_case "matrix map values" `Quick test_map_values;
      Alcotest.test_case "matrix map uneven cells" `Quick
        test_map_uneven_cells;
      Alcotest.test_case "matrix map lowest error" `Quick
        test_map_lowest_error;
      Alcotest.test_case "iter_ordered order" `Quick test_iter_ordered_order;
      Alcotest.test_case "iter_ordered error" `Quick test_iter_ordered_error;
      Alcotest.test_case "rng cell deterministic" `Quick
        test_rng_cell_deterministic;
      Alcotest.test_case "rng cell independent" `Quick
        test_rng_cell_independent;
      Alcotest.test_case "conform jobs parity" `Quick
        test_conform_jobs_parity;
      Alcotest.test_case "diff jobs parity" `Quick test_diff_jobs_parity;
      Alcotest.test_case "chaos stream parity" `Quick
        test_chaos_stream_parity;
      Alcotest.test_case "telemetered reports identical" `Quick
        test_telemetry_reports_identical;
      Alcotest.test_case "multicore package serializes" `Quick
        test_multicore_package_serializes;
      Alcotest.test_case "dpor matches exhaustive dfs" `Slow
        test_dpor_matches_dfs;
      Alcotest.test_case "dpor pinned expectations" `Slow
        test_dpor_pinned_expectations;
      Alcotest.test_case "dpor split sound" `Slow test_dpor_split_sound;
      Alcotest.test_case "dpor parallel jobs parity" `Quick
        test_dpor_parallel_jobs_parity;
      Alcotest.test_case "dpor deterministic" `Quick test_dpor_deterministic;
    ] )
