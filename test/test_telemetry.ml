(* Fleet observatory: the fleet collector and its progress stream.

   The load-bearing properties:
   - Attaching a collector, with or without a progress stream, never
     changes matrix results (observation is host-side only).
   - Counter totals are deterministic: total cells = matrix size at any
     worker count, even though per-worker attribution is not.
   - The progress stream is well-formed JSON lines with the documented
     event grammar, and the straggler/heartbeat logic is exact under an
     injected clock. *)

module Matrix = Threads_runner.Matrix
module T = Threads_runner.Telemetry
module Fleet = Obs.Fleet
module Ex = Firefly.Explore
module Sc = Threads_harness.Explore_scenarios

let job_counts = [ 1; 2; 4; 8 ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- fleet collector ---- *)

let test_fleet_map_noninterference () =
  let n = 200 in
  let cell i = (i * 13) + 5 in
  let plain = Matrix.map ~jobs:1 ~n cell in
  List.iter
    (fun jobs ->
      let fl = Fleet.create ~label:"unit" ~jobs ~cells:n () in
      let got = Matrix.map ~telemetry:(Fleet.sink fl) ~jobs ~n cell in
      Alcotest.(check (array int))
        (Printf.sprintf "map results unchanged (jobs=%d)" jobs)
        plain got;
      let rep = Fleet.snapshot fl in
      Alcotest.(check int)
        (Printf.sprintf "every cell counted exactly once (jobs=%d)" jobs)
        n (Fleet.total_cells rep);
      Alcotest.(check int) "jobs recorded" jobs rep.Fleet.r_jobs;
      Alcotest.(check int) "expected recorded" n rep.Fleet.r_expected)
    job_counts

let test_fleet_iter_ordered_noninterference () =
  let n = 500 in
  List.iter
    (fun jobs ->
      let fl = Fleet.create ~label:"unit" ~jobs ~cells:n () in
      let seen = ref [] in
      Matrix.iter_ordered ~telemetry:(Fleet.sink fl) ~jobs ~n
        ~f:(fun i -> i * 2)
        ~consume:(fun i v ->
          Alcotest.(check int) "value matches index" (i * 2) v;
          seen := i :: !seen)
        ();
      Alcotest.(check (list int))
        (Printf.sprintf "consume order unchanged (jobs=%d)" jobs)
        (List.init n (fun i -> i))
        (List.rev !seen);
      let rep = Fleet.snapshot fl in
      Alcotest.(check int) "cells counted" n (Fleet.total_cells rep);
      Alcotest.(check bool) "in-flight high-water >= 1" true
        (rep.Fleet.r_inflight_hw >= 1))
    job_counts

let test_fleet_render_and_chrome () =
  let clk = ref 0. in
  let now () = !clk in
  let fl = Fleet.create ~label:"unit" ~now ~jobs:2 ~cells:3 () in
  let s = Fleet.sink fl in
  (* Two cells on worker 0 closer than the coalescing gap, one on
     worker 1 after a long idle stretch. *)
  s.T.cell_start ~worker:0 ~cell:0;
  clk := 0.010;
  s.T.cell_done ~worker:0 ~cell:0;
  clk := 0.0101;
  s.T.cell_start ~worker:0 ~cell:1;
  clk := 0.020;
  s.T.cell_done ~worker:0 ~cell:1;
  clk := 1.0;
  s.T.cell_start ~worker:1 ~cell:2;
  clk := 1.5;
  s.T.cell_done ~worker:1 ~cell:2;
  clk := 2.0;
  let rep = Fleet.snapshot fl in
  let w0 = List.nth rep.Fleet.r_workers 0 in
  Alcotest.(check int) "w0 segments coalesced" 1
    (List.length w0.Fleet.ws_segments);
  let rendered = Fleet.render rep in
  Alcotest.(check bool) "render has title" true
    (contains rendered "fleet: unit");
  Alcotest.(check bool) "render has totals row" true
    (contains rendered "all");
  let trace = Fleet.chrome rep in
  match Obs.Json.find trace "traceEvents" with
  | Some (Obs.Json.Arr evs) ->
    let phase ph =
      List.filter_map
        (fun e ->
          if Obs.Json.find e "ph" = Some (Obs.Json.String ph) then
            Obs.Json.find e "tid"
          else None)
        evs
    in
    (* one coalesced segment for worker 0, one for worker 1 *)
    Alcotest.(check bool) "one B/E pair per busy segment, on its worker"
      true
      (phase "B" = [ Obs.Json.Int 0; Obs.Json.Int 1 ]
      && phase "E" = phase "B")
  | _ -> Alcotest.fail "chrome trace lacks traceEvents"

(* ---- progress stream ---- *)

let parse_lines lines =
  List.rev_map (fun l -> Obs.Json.of_string (String.trim l)) lines

let event_name j =
  match Obs.Json.find j "event" with
  | Some (Obs.Json.String s) -> s
  | _ -> Alcotest.fail "event without a name"

let test_progress_event_stream () =
  let lines = ref [] in
  (* Each reading of the clock is a second after the last, so every
     completed cell is past the heartbeat throttle. *)
  let clk = Atomic.make 0 in
  let p =
    Fleet.create
      ~now:(fun () -> float_of_int (Atomic.fetch_and_add clk 1))
      ~dest:(Fleet.Custom (fun l -> lines := l :: !lines))
      ~label:"unit" ~jobs:2 ~cells:5 ()
  in
  Fleet.phase p "warmup" ~cells:5;
  ignore (Matrix.map ~telemetry:(Fleet.sink p) ~jobs:2 ~n:5 (fun i -> i));
  Fleet.finish p;
  Fleet.finish p (* idempotent *);
  let evs = parse_lines !lines in
  Alcotest.(check string) "first event is start" "start"
    (event_name (List.hd evs));
  Alcotest.(check string) "last event is done" "done"
    (event_name (List.nth evs (List.length evs - 1)));
  Alcotest.(check bool) "phase announced" true
    (List.exists (fun e -> event_name e = "phase") evs);
  (* one heartbeat per completed cell, with monotone
     non-decreasing done counts ending at the total *)
  let hbs = List.filter (fun e -> event_name e = "heartbeat") evs in
  Alcotest.(check int) "heartbeat per cell" 5 (List.length hbs);
  let dones =
    List.map
      (fun e ->
        match Obs.Json.find e "done" with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.fail "heartbeat without done")
      hbs
  in
  Alcotest.(check (list int)) "done counts monotone" [ 1; 2; 3; 4; 5 ] dones;
  match List.rev evs with
  | last :: _ ->
    Alcotest.(check bool) "done event carries cells" true
      (Obs.Json.find last "cells" = Some (Obs.Json.Int 5))
  | [] -> Alcotest.fail "no events"

let test_progress_straggler () =
  let clk = ref 0. in
  let lines = ref [] in
  (* The whole run takes 0.33 s of the fake clock, under the heartbeat
     throttle: only the straggler path can emit. *)
  let p =
    Fleet.create
      ~now:(fun () -> !clk)
      ~dest:(Fleet.Custom (fun l -> lines := l :: !lines))
      ~label:"unit" ~jobs:1 ~cells:10 ()
  in
  let s = Fleet.sink p in
  (* Baseline: 8 cells of 10ms each — too fast and too uniform to flag. *)
  for i = 0 to 7 do
    s.T.cell_start ~worker:0 ~cell:i;
    clk := !clk +. 0.010;
    s.T.cell_done ~worker:0 ~cell:i
  done;
  Alcotest.(check bool) "no straggler in the baseline" false
    (List.exists
       (fun e -> event_name e = "straggler")
       (parse_lines !lines));
  (* One cell at 25x the mean. *)
  s.T.cell_start ~worker:0 ~cell:8;
  clk := !clk +. 0.250;
  s.T.cell_done ~worker:0 ~cell:8;
  let stragglers =
    List.filter (fun e -> event_name e = "straggler") (parse_lines !lines)
  in
  Alcotest.(check int) "straggler flagged once" 1 (List.length stragglers);
  let st = List.hd stragglers in
  Alcotest.(check bool) "straggler names the cell" true
    (Obs.Json.find st "cell" = Some (Obs.Json.Int 8))

let test_progress_never_stdout () =
  (* The matrix result is identical with and without a live progress
     stream — the stream goes only to its own destination. *)
  let n = 100 in
  let cell i = Printf.sprintf "row-%d" i in
  let plain = Matrix.map ~jobs:4 ~n cell in
  let sunk = ref 0 in
  let p =
    Fleet.create
      ~dest:(Fleet.Custom (fun _ -> incr sunk))
      ~label:"unit" ~jobs:4 ~cells:n ()
  in
  let got = Matrix.map ~telemetry:(Fleet.sink p) ~jobs:4 ~n cell in
  Fleet.finish p;
  Alcotest.(check (array string)) "results identical" plain got;
  Alcotest.(check bool) "events actually flowed" true (!sunk > 0)

let test_explore_progress_event () =
  (* Explore ticks share the heartbeat throttle: of three ticks, the
     second lands 0.2 s after the first and is dropped. *)
  let clk = ref 0. in
  let lines = ref [] in
  let p =
    Fleet.create
      ~now:(fun () -> !clk)
      ~dest:(Fleet.Custom (fun l -> lines := l :: !lines))
      ~label:"explore" ~jobs:1 ~cells:0 ()
  in
  List.iter
    (fun (at, executions, sleep_blocked, peak_depth) ->
      clk := at;
      Fleet.explore_tick p ~scenario:"unit" ~executions ~sleep_blocked
        ~peak_depth)
    [ (0.5, 10, 2, 5); (0.7, 25, 6, 7); (1.1, 40, 9, 8) ];
  let int_field e k =
    match Obs.Json.find e k with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.fail ("explore event without " ^ k)
  in
  let counters =
    List.filter_map
      (fun e ->
        if event_name e = "explore" then
          Some
            ( int_field e "executions",
              int_field e "sleep_blocked",
              int_field e "peak_depth" )
        else None)
      (parse_lines !lines)
  in
  Alcotest.(check (list (triple int int int)))
    "two explore events, cumulative counters"
    [ (10, 2, 5); (40, 9, 8) ]
    counters

(* ---- DPOR explore instrumentation ---- *)

let test_explore_progress_monotone () =
  let s = Option.get (Sc.find "wakeup-waiting") in
  let snaps = ref [] in
  let v, final =
    Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~split_branches:0
      ~progress:(fun st -> snaps := st :: !snaps)
      ~build:s.Sc.build s.Sc.check
  in
  Alcotest.(check (list string)) "violations unchanged" s.Sc.expect v;
  let snaps = List.rev !snaps in
  Alcotest.(check int) "one snapshot per execution" final.Ex.executions
    (List.length snaps);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Ex.executions <= b.Ex.executions
      && a.Ex.sleep_blocked <= b.Ex.sleep_blocked
      && a.Ex.peak_depth <= b.Ex.peak_depth
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "snapshots monotone" true (monotone snaps);
  (* Snapshots land right after each execution, before the backtracking
     that may still discover sleep-blocked branches — so the last one
     matches the final stats on executions/depth and trails at most on
     sleep_blocked. *)
  let last = List.nth snaps (List.length snaps - 1) in
  Alcotest.(check int) "last snapshot saw every execution"
    final.Ex.executions last.Ex.executions;
  Alcotest.(check int) "last snapshot saw the peak depth"
    final.Ex.peak_depth last.Ex.peak_depth;
  Alcotest.(check bool) "sleep counter only trails" true
    (last.Ex.sleep_blocked <= final.Ex.sleep_blocked);
  Alcotest.(check bool) "peak depth positive" true (final.Ex.peak_depth > 0)

let test_explore_telemetry_identical () =
  (* Instrumented parallel exploration returns exactly what the bare one
     does — including the new peak_depth stat — at any worker count. *)
  let s = Option.get (Sc.find "wakeup-waiting") in
  let bare =
    Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~split_branches:2
      ~jobs:1 ~build:s.Sc.build s.Sc.check
  in
  List.iter
    (fun jobs ->
      let fl = Fleet.create ~label:"explore" ~jobs ~cells:0 () in
      let ticks = ref 0 in
      let instrumented =
        Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~split_branches:2
          ~jobs
          ~progress:(fun _ -> incr ticks)
          ~telemetry:(Fleet.sink fl) ~build:s.Sc.build s.Sc.check
      in
      Alcotest.(check bool)
        (Printf.sprintf "instrumented result identical (jobs=%d)" jobs)
        true (instrumented = bare);
      Alcotest.(check bool) "progress ticked" true (!ticks > 0))
    job_counts

(* [repro explore --mode=both] runs the plain DFS outside the
   collector's window, so the fleet reports only the DPOR matrices.  On
   wakeup-waiting the DFS takes 21 722 executions against DPOR's 16, so
   a window that held it would take nearly the whole process's time. *)
let test_explore_fleet_window () =
  let progress = Filename.temp_file "explore_progress" ".jsonl" in
  let t0 = Unix.gettimeofday () in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/repro.exe explore --scenario=wakeup-waiting --mode=both \
          --jobs=1 --progress=%s > %s"
         (Filename.quote progress) Filename.null)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let lines = In_channel.with_open_text progress In_channel.input_lines in
  Sys.remove progress;
  Alcotest.(check int) "explore exits 0" 0 code;
  (* [parse_lines] reverses: the file's last event comes first. *)
  match parse_lines lines with
  | last :: _ when event_name last = "done" -> (
    match Obs.Json.find last "elapsed_s" with
    | Some (Obs.Json.Float window) ->
      if not (window < wall /. 2.) then
        Alcotest.failf
          "collector window %.3f s of a %.3f s run: the DFS ran inside it"
          window wall
    | _ -> Alcotest.fail "done event without elapsed_s")
  | _ -> Alcotest.fail "progress stream does not end with done"

(* Each scenario's phase is announced once the pre-search has fixed its
   frontier, with that frontier's cell count: wakeup-waiting splits into
   3 per-prefix searches, the cells the done event counts too. *)
let test_explore_phase_cells () =
  let progress = Filename.temp_file "explore_phase" ".jsonl" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/repro.exe explore --scenario=wakeup-waiting --jobs=1 \
          --progress=%s > %s"
         (Filename.quote progress) Filename.null)
  in
  let lines = In_channel.with_open_text progress In_channel.input_lines in
  Sys.remove progress;
  Alcotest.(check int) "explore exits 0" 0 code;
  let cells event =
    List.filter_map
      (fun e ->
        if event_name e <> event then None
        else
          match Obs.Json.find e "cells" with
          | Some (Obs.Json.Int n) -> Some n
          | _ -> Alcotest.fail (event ^ " event without cells"))
      (parse_lines lines)
  in
  Alcotest.(check (list int)) "one phase, with the frontier's cells" [ 3 ]
    (cells "phase");
  Alcotest.(check (list int)) "done counts the same cells" [ 3 ]
    (cells "done")

let suite =
  ( "telemetry-observatory",
    [
      Alcotest.test_case "fleet map noninterference" `Quick
        test_fleet_map_noninterference;
      Alcotest.test_case "fleet iter_ordered noninterference" `Quick
        test_fleet_iter_ordered_noninterference;
      Alcotest.test_case "fleet render + chrome trace" `Quick
        test_fleet_render_and_chrome;
      Alcotest.test_case "progress event stream" `Quick
        test_progress_event_stream;
      Alcotest.test_case "progress straggler detection" `Quick
        test_progress_straggler;
      Alcotest.test_case "progress leaves results alone" `Quick
        test_progress_never_stdout;
      Alcotest.test_case "explore progress monotone" `Quick
        test_explore_progress_monotone;
      Alcotest.test_case "explore telemetry identical" `Quick
        test_explore_telemetry_identical;
      Alcotest.test_case "explore progress event" `Quick
        test_explore_progress_event;
      Alcotest.test_case "explore fleet window holds only dpor" `Quick
        test_explore_fleet_window;
      Alcotest.test_case "explore phase carries its frontier's cells" `Quick
        test_explore_phase_cells;
    ] )
