(* The fleet collector for the run-matrix executor.

   A collector implements the Threads_runner.Telemetry.sink callbacks
   and aggregates them host-side: per-worker counters plus coalesced
   busy segments for the worker-occupancy timeline.  Given a
   destination it also streams JSON lines: start, phase, heartbeat
   (throughput + ETA), straggler, explore (DPOR frontier ticks) and done
   events.  Everything here is invisible to the simulated machines — the
   sink only observes the executor, it never feeds anything back — so
   instrumented runs stay cycle- and schedule-identical, and the stream
   goes to stderr or a file, never stdout.  Event timing and throughput
   figures are host wall-clock and therefore not deterministic; the
   structural fields (cells, totals) are.

   Concurrency: each worker's record is written only by that worker's
   domain (the runner routes events by worker index); cross-worker
   values (the in-flight high-water mark) are atomics, and the stream's
   state is behind [mu].  Snapshots are taken after the matrix has
   joined its workers, from one domain. *)

module T = Threads_runner.Telemetry

(* Beyond this many timeline segments per worker we keep counting cells
   but stop recording new segments — bounds trace size on million-cell
   matrices.  Adjacent cells closer than [seg_gap] seconds coalesce into
   one segment, which is what keeps real traces far below the cap. *)
let max_segments = 4096
let seg_gap = 0.0005

(* Seconds between two heartbeats, and between two explore events. *)
let interval = 0.5

(* Straggler heuristic: after a baseline of cells, a cell at >4x the
   running mean (and humanly noticeable) gets flagged as it lands. *)
let straggler_min_cells = 8
let straggler_factor = 4.
let straggler_min_s = 0.05

type dest = Stderr | File of string | Custom of (string -> unit)

type worker = {
  mutable w_cells : int;
  mutable w_idle_spins : int;
  mutable w_busy_s : float;
  mutable w_max_cell_s : float;
  mutable w_cur_start : float;
  mutable w_segments : (float * float) list; (* newest first, absolute *)
  mutable w_nsegs : int;
  mutable w_dropped_segs : int;
}

let fresh_worker () =
  {
    w_cells = 0;
    w_idle_spins = 0;
    w_busy_s = 0.;
    w_max_cell_s = 0.;
    w_cur_start = Float.nan;
    w_segments = [];
    w_nsegs = 0;
    w_dropped_segs = 0;
  }

type t = {
  label : string;
  expected : int; (* 0 = unknown (no ETA) *)
  now : unit -> float;
  t0 : float;
  workers : worker array;
  inflight_hw : int Atomic.t;
  write : (string -> unit) option;
  close : unit -> unit;
  mu : Mutex.t;
  mutable n_done : int;
  mutable sum_s : float;
  mutable last_hb : float;
  mutable last_tick : float;
  mutable finished : bool;
}

let r3 x = Float.round (x *. 1e3) /. 1e3

let emit t fields =
  match t.write with
  | None -> ()
  | Some w -> w (Json.to_string (Json.Obj fields) ^ "\n")

let create ?(now = Unix.gettimeofday) ?dest ~label ~jobs ~cells () =
  let write, close =
    match dest with
    | None -> (None, fun () -> ())
    | Some Stderr ->
      ( Some
          (fun s ->
            output_string stderr s;
            flush stderr),
        fun () -> () )
    | Some (File path) ->
      let oc = open_out path in
      ( Some
          (fun s ->
            output_string oc s;
            flush oc),
        fun () -> close_out oc )
    | Some (Custom f) -> (Some f, fun () -> ())
  in
  let t0 = now () in
  let t =
    {
      label;
      expected = cells;
      now;
      t0;
      workers = Array.init (max 1 jobs) (fun _ -> fresh_worker ());
      inflight_hw = Atomic.make 0;
      write;
      close;
      mu = Mutex.create ();
      n_done = 0;
      sum_s = 0.;
      last_hb = t0;
      last_tick = t0;
      finished = false;
    }
  in
  emit t
    [
      ("event", Json.String "start");
      ("task", Json.String label);
      ("cells", Json.Int cells);
      ("jobs", Json.Int jobs);
    ];
  t

let phase t name ~cells =
  Mutex.lock t.mu;
  emit t
    [
      ("event", Json.String "phase");
      ("name", Json.String name);
      ("cells", Json.Int cells);
    ];
  Mutex.unlock t.mu

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let get t i = if i >= 0 && i < Array.length t.workers then Some t.workers.(i) else None

(* The stream's share of a completed cell of [d] seconds: a straggler
   check against the running mean, then a throttled heartbeat. *)
let stream_cell_done t ~worker ~cell d =
  Mutex.lock t.mu;
  let prev = t.n_done in
  t.n_done <- prev + 1;
  (if prev >= straggler_min_cells then
     let mean = t.sum_s /. float_of_int prev in
     if d > straggler_factor *. mean && d > straggler_min_s then
       emit t
         [
           ("event", Json.String "straggler");
           ("cell", Json.Int cell);
           ("worker", Json.Int worker);
           ("cell_s", Json.Float (r3 d));
           ("mean_s", Json.Float (r3 mean));
         ]);
  t.sum_s <- t.sum_s +. d;
  let now = t.now () in
  if now -. t.last_hb >= interval then begin
    t.last_hb <- now;
    let elapsed = now -. t.t0 in
    let rate =
      if elapsed > 0. then float_of_int t.n_done /. elapsed else 0.
    in
    let eta =
      if t.expected > t.n_done && rate > 0. then
        [
          ( "eta_s",
            Json.Float (r3 (float_of_int (t.expected - t.n_done) /. rate)) );
        ]
      else []
    in
    emit t
      ([
         ("event", Json.String "heartbeat");
         ("done", Json.Int t.n_done);
         ("total", Json.Int t.expected);
         ("elapsed_s", Json.Float (r3 elapsed));
         ("cells_per_s", Json.Float (r3 rate));
       ]
      @ eta)
  end;
  Mutex.unlock t.mu

let sink t =
  {
    T.cell_start =
      (fun ~worker ~cell:_ ->
        match get t worker with
        | None -> ()
        | Some w -> w.w_cur_start <- t.now ());
    cell_done =
      (fun ~worker ~cell ->
        match get t worker with
        | None -> ()
        | Some w ->
          let now = t.now () in
          let d =
            if Float.is_nan w.w_cur_start then 0. else now -. w.w_cur_start
          in
          let d = if d < 0. then 0. else d in
          w.w_cells <- w.w_cells + 1;
          w.w_busy_s <- w.w_busy_s +. d;
          if d > w.w_max_cell_s then w.w_max_cell_s <- d;
          let start = now -. d in
          (match w.w_segments with
          | (s0, s1) :: rest when start -. s1 <= seg_gap ->
            w.w_segments <- (s0, now) :: rest
          | segs ->
            if w.w_nsegs >= max_segments then
              w.w_dropped_segs <- w.w_dropped_segs + 1
            else begin
              w.w_segments <- (start, now) :: segs;
              w.w_nsegs <- w.w_nsegs + 1
            end);
          w.w_cur_start <- Float.nan;
          if Option.is_some t.write then stream_cell_done t ~worker ~cell d);
    idle_spin =
      (fun ~worker ->
        match get t worker with
        | None -> ()
        | Some w -> w.w_idle_spins <- w.w_idle_spins + 1);
    in_flight = (fun ~count -> atomic_max t.inflight_hw count);
  }

let explore_tick t ~scenario ~executions ~sleep_blocked ~peak_depth =
  Mutex.lock t.mu;
  let now = t.now () in
  if now -. t.last_tick >= interval then begin
    t.last_tick <- now;
    let elapsed = now -. t.t0 in
    let rate =
      if elapsed > 0. then float_of_int executions /. elapsed else 0.
    in
    emit t
      [
        ("event", Json.String "explore");
        ("scenario", Json.String scenario);
        ("executions", Json.Int executions);
        ("sleep_blocked", Json.Int sleep_blocked);
        ("peak_depth", Json.Int peak_depth);
        ("elapsed_s", Json.Float (r3 elapsed));
        ("execs_per_s", Json.Float (r3 rate));
      ]
  end;
  Mutex.unlock t.mu

type worker_stats = {
  ws_id : int;
  ws_cells : int;
  ws_idle_spins : int;
  ws_busy_s : float;
  ws_max_cell_s : float;
  ws_segments : (float * float) list; (* oldest first, relative to t0 *)
  ws_dropped_segments : int;
}

type report = {
  r_label : string;
  r_jobs : int;
  r_expected : int;
  r_elapsed_s : float;
  r_inflight_hw : int;
  r_workers : worker_stats list;
}

let snapshot t =
  let elapsed = t.now () -. t.t0 in
  let workers =
    Array.to_list
      (Array.mapi
         (fun i w ->
           {
             ws_id = i;
             ws_cells = w.w_cells;
             ws_idle_spins = w.w_idle_spins;
             ws_busy_s = w.w_busy_s;
             ws_max_cell_s = w.w_max_cell_s;
             ws_segments =
               List.rev_map
                 (fun (s0, s1) -> (s0 -. t.t0, s1 -. t.t0))
                 w.w_segments;
             ws_dropped_segments = w.w_dropped_segs;
           })
         t.workers)
  in
  {
    r_label = t.label;
    r_jobs = Array.length t.workers;
    r_expected = t.expected;
    r_elapsed_s = elapsed;
    r_inflight_hw = Atomic.get t.inflight_hw;
    r_workers = workers;
  }

let total_cells r = List.fold_left (fun acc w -> acc + w.ws_cells) 0 r.r_workers

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let rep = snapshot t in
    let cells = total_cells rep in
    let worker w =
      Json.Obj
        [
          ("worker", Json.Int w.ws_id);
          ("cells", Json.Int w.ws_cells);
          ("idle_spins", Json.Int w.ws_idle_spins);
          ("busy_ms", Json.Float (r3 (w.ws_busy_s *. 1e3)));
          ("max_cell_ms", Json.Float (r3 (w.ws_max_cell_s *. 1e3)));
        ]
    in
    emit t
      [
        ("event", Json.String "done");
        ("task", Json.String t.label);
        ("cells", Json.Int cells);
        ("elapsed_s", Json.Float (r3 rep.r_elapsed_s));
        ( "cells_per_s",
          Json.Float
            (r3
               (if rep.r_elapsed_s > 0. then
                  float_of_int cells /. rep.r_elapsed_s
                else 0.)) );
        ("workers", Json.Arr (List.map worker rep.r_workers));
      ];
    t.close ()
  end

let render r =
  let module Tb = Threads_util.Table in
  let tb =
    Tb.create
      ~title:
        (Printf.sprintf
           "fleet: %s — %d cells over %d workers in %.1f ms (in-flight \
            high-water %d)"
           r.r_label (total_cells r) r.r_jobs
           (r.r_elapsed_s *. 1e3)
           r.r_inflight_hw)
      [
        "worker"; "cells"; "idle"; "busy ms"; "util"; "max cell ms";
      ]
  in
  let ms s = Tb.cell_float ~decimals:2 (s *. 1e3) in
  let util busy =
    if r.r_elapsed_s > 0. then Tb.cell_pct (busy /. r.r_elapsed_s)
    else Tb.cell_pct 0.
  in
  List.iter
    (fun w ->
      Tb.add_row tb
        [
          Tb.cell_int w.ws_id;
          Tb.cell_int w.ws_cells;
          Tb.cell_int w.ws_idle_spins;
          ms w.ws_busy_s;
          util w.ws_busy_s;
          ms w.ws_max_cell_s;
        ])
    r.r_workers;
  Tb.add_rule tb;
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 r.r_workers in
  let sumf f = List.fold_left (fun acc w -> acc +. f w) 0. r.r_workers in
  let busy = sumf (fun w -> w.ws_busy_s) in
  Tb.add_row tb
    [
      "all";
      Tb.cell_int (total_cells r);
      Tb.cell_int (sum (fun w -> w.ws_idle_spins));
      ms busy;
      (* Aggregate utilization: busy time over worker-seconds. *)
      (if r.r_elapsed_s > 0. then
         Tb.cell_pct (busy /. (r.r_elapsed_s *. float_of_int r.r_jobs))
       else Tb.cell_pct 0.);
      ms (List.fold_left (fun acc w -> Float.max acc w.ws_max_cell_s) 0. r.r_workers);
    ];
  Tb.render tb

(* Chrome trace-event worker-occupancy timeline, written by
   Chrome_trace: one track per worker domain, one B/E pair per
   coalesced busy segment, in whole microseconds relative to collector
   creation. *)
let chrome r =
  let us s = Float.to_int (Float.round (s *. 1e6)) in
  Chrome_trace.to_json
    ~process_name:("fleet: " ^ r.r_label)
    ~thread_names:
      (List.map (fun w -> (w.ws_id, Printf.sprintf "worker %d" w.ws_id))
         r.r_workers)
    (List.concat_map
       (fun w ->
         List.map
           (fun (s0, s1) ->
             { Instrument.track = w.ws_id; name = "cells"; cat = "fleet";
               t0 = us s0; t1 = us s1 })
           w.ws_segments)
       r.r_workers)
