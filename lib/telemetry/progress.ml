(* Streaming JSON-lines progress for long-running matrices.

   One JSON object per line: start, phase, heartbeat (throughput + ETA),
   straggler, explore (DPOR frontier ticks) and done events.  The stream
   goes to stderr or a file — never stdout — so the final report stays
   byte-identical whether or not progress is enabled.  Event timing and
   throughput figures are host wall-clock and therefore not
   deterministic; the structural fields (cells, totals) are. *)

type dest = Stderr | File of string | Custom of (string -> unit)

type t = {
  fleet : Fleet.t;
  label : string;
  total : int; (* 0 = unknown (no ETA) *)
  now : unit -> float;
  interval : float;
  mu : Mutex.t;
  write : (string -> unit) option;
  close : unit -> unit;
  t0 : float;
  mutable n_done : int;
  mutable sum_s : float;
  mutable last_hb : float;
  mutable last_tick : float;
  mutable finished : bool;
}

let r3 x = Float.round (x *. 1e3) /. 1e3

let json_line fields = Obs.Json.to_string (Obs.Json.Obj fields) ^ "\n"

let emit t fields =
  match t.write with None -> () | Some w -> w (json_line fields)

let create ?now ?(interval = 0.5) ?dest ~label ~total ~jobs () =
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
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
      fleet = Fleet.create ~label ~now ~jobs ~cells:total ();
      label;
      total;
      now;
      interval;
      mu = Mutex.create ();
      write;
      close;
      t0;
      n_done = 0;
      sum_s = 0.;
      last_hb = t0;
      last_tick = t0;
      finished = false;
    }
  in
  emit t
    [
      ("event", Obs.Json.String "start");
      ("task", Obs.Json.String label);
      ("cells", Obs.Json.Int total);
      ("jobs", Obs.Json.Int jobs);
    ];
  t

let fleet_report t = Fleet.snapshot t.fleet

let phase t name ~cells =
  Mutex.lock t.mu;
  emit t
    [
      ("event", Obs.Json.String "phase");
      ("name", Obs.Json.String name);
      ("cells", Obs.Json.Int cells);
    ];
  Mutex.unlock t.mu

(* Straggler heuristic: after a baseline of cells, a cell at >4x the
   running mean (and humanly noticeable) gets flagged as it lands. *)
let straggler_min_cells = 8
let straggler_factor = 4.
let straggler_min_s = 0.05

let on_cell_done t ~worker ~cell =
  Mutex.lock t.mu;
  let d = Fleet.last_cell_s t.fleet ~worker in
  let prev = t.n_done in
  t.n_done <- prev + 1;
  (if prev >= straggler_min_cells then
     let mean = t.sum_s /. float_of_int prev in
     if d > straggler_factor *. mean && d > straggler_min_s then
       emit t
         [
           ("event", Obs.Json.String "straggler");
           ("cell", Obs.Json.Int cell);
           ("worker", Obs.Json.Int worker);
           ("cell_s", Obs.Json.Float (r3 d));
           ("mean_s", Obs.Json.Float (r3 mean));
         ]);
  t.sum_s <- t.sum_s +. d;
  let now = t.now () in
  if now -. t.last_hb >= t.interval then begin
    t.last_hb <- now;
    let elapsed = now -. t.t0 in
    let rate =
      if elapsed > 0. then float_of_int t.n_done /. elapsed else 0.
    in
    let base =
      [
        ("event", Obs.Json.String "heartbeat");
        ("done", Obs.Json.Int t.n_done);
        ("total", Obs.Json.Int t.total);
        ("elapsed_s", Obs.Json.Float (r3 elapsed));
        ("cells_per_s", Obs.Json.Float (r3 rate));
      ]
    in
    let eta =
      if t.total > t.n_done && rate > 0. then
        [
          ( "eta_s",
            Obs.Json.Float (r3 (float_of_int (t.total - t.n_done) /. rate))
          );
        ]
      else []
    in
    emit t (base @ eta)
  end;
  Mutex.unlock t.mu

let sink t =
  let f = Fleet.sink t.fleet in
  {
    f with
    Threads_runner.Telemetry.cell_done =
      (fun ~worker ~cell ->
        f.Threads_runner.Telemetry.cell_done ~worker ~cell;
        on_cell_done t ~worker ~cell);
  }

let explore_tick t ~scenario ~executions ~sleep_blocked ~peak_depth =
  Mutex.lock t.mu;
  let now = t.now () in
  if now -. t.last_tick >= t.interval then begin
    t.last_tick <- now;
    let elapsed = now -. t.t0 in
    let rate =
      if elapsed > 0. then float_of_int executions /. elapsed else 0.
    in
    emit t
      [
        ("event", Obs.Json.String "explore");
        ("scenario", Obs.Json.String scenario);
        ("executions", Obs.Json.Int executions);
        ("sleep_blocked", Obs.Json.Int sleep_blocked);
        ("peak_depth", Obs.Json.Int peak_depth);
        ("elapsed_s", Obs.Json.Float (r3 elapsed));
        ("execs_per_s", Obs.Json.Float (r3 rate));
      ]
  end;
  Mutex.unlock t.mu

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let rep = Fleet.snapshot t.fleet in
    emit t
      [
        ("event", Obs.Json.String "done");
        ("task", Obs.Json.String t.label);
        ("cells", Obs.Json.Int (Fleet.total_cells rep));
        ("elapsed_s", Obs.Json.Float (r3 rep.Fleet.r_elapsed_s));
        ( "cells_per_s",
          Obs.Json.Float
            (r3
               (if rep.Fleet.r_elapsed_s > 0. then
                  float_of_int (Fleet.total_cells rep)
                  /. rep.Fleet.r_elapsed_s
                else 0.)) );
        ( "workers",
          Obs.Json.Arr (List.map Fleet.worker_to_json rep.Fleet.r_workers)
        );
      ];
    t.close ()
  end
