module M = Firefly.Machine
module Tid = Threads_util.Tid
module Table = Threads_util.Table

type t = {
  makespan : int;
  event_count : int;
  timeline : Timeline.t;
  critpath : Critpath.t;
  waitfor : Waitfor.t;
  name_of : int -> string;
}

(* The profile fold over the machine's [Ev_prof] stream: edges numbered
   in stream order, newest first.  A run segment merges into the
   immediately preceding edge when that is a segment of the same thread
   ending where it starts, so a burst of consecutive steps costs one
   entry; zero-cycle segments add nothing.  [spins] keeps the spin-lock
   acquire windows from the [Ev_stat] stream (the "spin" spans
   [Spinlock.acquire] records), newest first. *)
type recorder = {
  mutable rev : M.prof_event list;
  mutable count : int;
  mutable spins : (Tid.t * int * int) list;
}

let recorder () = { rev = []; count = 0; spins = [] }

let record r machine =
  let push tid t kind =
    r.rev <- { M.pr_seq = r.count; pr_t = t; pr_tid = tid; pr_kind = kind }
      :: r.rev;
    r.count <- r.count + 1
  in
  M.subscribe machine M.K_prof (function
    | M.Ev_prof { tid; t = t0; kind = M.Pr_run t1 as kind } -> (
      if t1 > t0 then
        match r.rev with
        | ({ pr_tid; pr_kind = M.Pr_run e; _ } as h) :: rest
          when pr_tid = tid && e = t0 ->
          r.rev <- { h with pr_kind = kind } :: rest
        | _ -> push tid t0 kind)
    | M.Ev_prof { tid; t; kind } -> push tid t kind
    | _ -> ());
  M.subscribe machine M.K_stat (function
    | M.Ev_stat { tid; stat = M.St_span ("spin", _, t0, t1); _ } ->
      r.spins <- (tid, t0, t1) :: r.spins
    | _ -> ())

let of_run r m =
  let makespan = M.total_cycles m in
  let events = List.rev r.rev in
  let timeline =
    Timeline.build ~makespan ~spin_spans:(List.rev r.spins) events
  in
  {
    makespan;
    event_count = r.count;
    timeline;
    critpath = Critpath.build ~makespan timeline events;
    waitfor = Waitfor.build events;
    name_of = (fun o -> M.lock_name m o);
  }

let target_name t = function
  | M.On_obj o -> t.name_of o
  | M.On_thread tid -> Printf.sprintf "t%d" tid
  | M.On_unknown -> "?"

let entry_name t = function
  | Critpath.Origin -> "(start)"
  | Critpath.Spawned p -> Printf.sprintf "fork by t%d" p
  | Critpath.Woken { waker; obj } ->
    let who = match waker with Some w -> Printf.sprintf "t%d" w | None -> "?" in
    let what = match obj with Some o -> t.name_of o | None -> "wake" in
    Printf.sprintf "%s via %s" what who

(* The object (or pseudo-object) whose hand-off put a step on the path —
   the grouping key of the "critical path by object" table. *)
let entry_object t = function
  | Critpath.Origin -> "(start)"
  | Critpath.Spawned _ -> "(fork)"
  | Critpath.Woken { obj = Some o; _ } -> t.name_of o
  | Critpath.Woken { obj = None; _ } -> "(wake)"

let by_object t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Critpath.step) ->
      let key = entry_object t s.s_entry in
      let cycles, steps = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
      Hashtbl.replace tbl key (cycles + (s.s_t1 - s.s_t0), steps + 1))
    t.critpath.steps;
  Hashtbl.fold (fun key (cycles, steps) acc -> (key, cycles, steps) :: acc) tbl []
  |> List.sort (fun (k1, c1, _) (k2, c2, _) -> compare (-c1, k1) (-c2, k2))

(* Who kept others waiting: blocked cycles grouped by (waker, object).
   Intervals never resolved (waker None) group under "(never woken)". *)
let top_blockers t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (b : Timeline.blocked) ->
      let who =
        match b.b_waker with Some w -> Printf.sprintf "t%d" w | None -> "(never woken)"
      in
      let what =
        match b.b_obj_handed with
        | Some o -> t.name_of o
        | None -> target_name t b.b_target
      in
      let cycles, count =
        Option.value (Hashtbl.find_opt tbl (who, what)) ~default:(0, 0)
      in
      Hashtbl.replace tbl (who, what) (cycles + (b.b_t1 - b.b_t0), count + 1))
    t.timeline.blocks;
  Hashtbl.fold (fun (who, what) (c, n) acc -> (who, what, c, n) :: acc) tbl []
  |> List.sort (fun (w1, o1, c1, _) (w2, o2, c2, _) ->
         compare (-c1, w1, o1) (-c2, w2, o2))

let share t cycles =
  if t.makespan = 0 then 0.0 else float_of_int cycles /. float_of_int t.makespan

(* ---------- table report ---------- *)

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "profile: makespan %d cycles, %d thread(s), %d event(s)\n\n"
       t.makespan
       (List.length t.timeline.lines)
       t.event_count);
  (* Critical path: one row per step, chronological; the durations tile
     the makespan, so the total row equals it exactly. *)
  let cp =
    Table.create ~title:"critical path (blocking chain)"
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left;
                Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "thread"; "t0"; "t1"; "cycles"; "entered via"; "run"; "spin"; "sched"; "blocked" ]
  in
  List.iter
    (fun (s : Critpath.step) ->
      Table.add_row cp
        [
          Printf.sprintf "t%d" s.s_tid;
          Table.cell_int s.s_t0;
          Table.cell_int s.s_t1;
          Table.cell_int (s.s_t1 - s.s_t0);
          entry_name t s.s_entry;
          Table.cell_int s.s_run;
          Table.cell_int s.s_spin;
          Table.cell_int s.s_sched;
          Table.cell_int s.s_blocked;
        ])
    t.critpath.steps;
  Table.add_rule cp;
  Table.add_row cp
    [ "total"; ""; ""; Table.cell_int t.critpath.total; ""; ""; ""; ""; "" ];
  Buffer.add_string buf (Table.render cp);
  Buffer.add_char buf '\n';
  let byo =
    Table.create ~title:"critical path by object"
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "object"; "cycles"; "steps"; "share" ]
  in
  List.iter
    (fun (key, cycles, steps) ->
      Table.add_row byo
        [ key; Table.cell_int cycles; Table.cell_int steps;
          Table.cell_pct (share t cycles) ])
    (by_object t);
  Buffer.add_string buf (Table.render byo);
  Buffer.add_char buf '\n';
  let blockers = top_blockers t in
  if blockers <> [] then begin
    let tb =
      Table.create ~title:"top blockers (who kept others waiting)"
        ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
        [ "waker"; "object"; "blocked cycles"; "wakes" ]
    in
    let rec take n = function
      | [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r
    in
    List.iter
      (fun (who, what, cycles, count) ->
        Table.add_row tb
          [ who; what; Table.cell_int cycles; Table.cell_int count ])
      (take 10 blockers);
    Buffer.add_string buf (Table.render tb);
    Buffer.add_char buf '\n'
  end;
  let decomp =
    Table.create ~title:"wait decomposition (scheduler- vs lock-induced)"
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "thread"; "run"; "spin"; "sched"; "blocked" ]
  in
  List.iter
    (fun (l : Timeline.thread_line) ->
      let run, spin, sched, blocked =
        Timeline.decompose l.l_segs ~t0:0 ~t1:t.makespan
      in
      Table.add_row decomp
        [
          Printf.sprintf "t%d" l.l_tid;
          Table.cell_int run;
          Table.cell_int spin;
          Table.cell_int sched;
          Table.cell_int blocked;
        ])
    t.timeline.lines;
  Table.add_rule decomp;
  let run, spin, sched, blocked = Timeline.totals t.timeline in
  Table.add_row decomp
    [ "total"; Table.cell_int run; Table.cell_int spin; Table.cell_int sched;
      Table.cell_int blocked ];
  Buffer.add_string buf (Table.render decomp);
  Buffer.add_string buf
    (Printf.sprintf
       "scheduler-induced wait: %d cycles; lock-induced wait: %d cycles (spin %d + blocked %d)\n"
       sched (spin + blocked) spin blocked);
  if t.waitfor.cycles <> [] || t.waitfor.final <> [] then begin
    Buffer.add_char buf '\n';
    List.iter
      (fun (c : Waitfor.cycle) ->
        Buffer.add_string buf
          (Printf.sprintf "wait-for CYCLE at cycle %d (seq %d): %s\n" c.c_at
             c.c_seq
             (String.concat " -> "
                (List.map
                   (fun (e : Waitfor.edge) ->
                     Printf.sprintf "t%d[%s]" e.w_tid (target_name t e.w_target))
                   c.c_members))))
      t.waitfor.cycles;
    List.iter
      (fun (e : Waitfor.edge) ->
        Buffer.add_string buf
          (Printf.sprintf
             "still blocked at end: t%d on %s (owner %s) since cycle %d\n"
             e.w_tid (target_name t e.w_target)
             (match e.w_owner with
             | Some o -> Printf.sprintf "t%d" o
             | None -> "-")
             e.w_at))
      t.waitfor.final
  end;
  Buffer.contents buf

(* ---------- folded stacks ---------- *)

(* One line per distinct stack, "frame;frame;... cycles" — the format
   flamegraph.pl and speedscope ingest.  Stacks are thread;state[;object],
   aggregated and sorted so output is deterministic. *)
let folded t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (l : Timeline.thread_line) ->
      List.iter
        (fun (s : Timeline.seg) ->
          let stack =
            match (s.kind, s.obj) with
            | Timeline.Blocked, Some o ->
              Printf.sprintf "t%d;%s;%s" s.tid
                (Timeline.kind_name s.kind)
                (t.name_of o)
            | _ -> Printf.sprintf "t%d;%s" s.tid (Timeline.kind_name s.kind)
          in
          let d = s.t1 - s.t0 in
          if d > 0 then
            Hashtbl.replace tbl stack
              (d + Option.value (Hashtbl.find_opt tbl stack) ~default:0))
        l.l_segs)
    t.timeline.lines;
  Hashtbl.fold (fun stack cycles acc -> (stack, cycles) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (stack, cycles) -> Printf.sprintf "%s %d" stack cycles)
  |> fun lines -> String.concat "\n" lines ^ "\n"

(* ---------- chrome trace ---------- *)

let chrome t =
  let seg_spans (l : Timeline.thread_line) =
    List.filter_map
      (fun (s : Timeline.seg) ->
        if s.t1 <= s.t0 then None
        else
          let name =
            match (s.kind, s.obj) with
            | Timeline.Blocked, Some o ->
              Printf.sprintf "blocked %s" (t.name_of o)
            | _ -> Timeline.kind_name s.kind
          in
          Some
            { Instrument.track = s.tid; name; cat = Timeline.kind_name s.kind;
              t0 = s.t0; t1 = s.t1 })
      l.l_segs
  in
  let cp_track =
    1 + List.fold_left (fun a (l : Timeline.thread_line) -> max a l.l_tid) 0
          t.timeline.lines
  in
  let cp_spans =
    List.filter_map
      (fun (s : Critpath.step) ->
        if s.s_t1 <= s.s_t0 then None
        else
          Some
            { Instrument.track = cp_track; cat = "critpath";
              name = Printf.sprintf "t%d: %s" s.s_tid (entry_name t s.s_entry);
              t0 = s.s_t0; t1 = s.s_t1 })
      t.critpath.steps
  in
  let thread_names =
    List.map
      (fun (l : Timeline.thread_line) -> (l.l_tid, Printf.sprintf "t%d" l.l_tid))
      t.timeline.lines
    @ [ (cp_track, "critical path") ]
  in
  Chrome_trace.to_json ~process_name:"threads_profile"
    ~cycle_us:Firefly.Cost.us_per_cycle ~thread_names
    (List.concat_map seg_spans t.timeline.lines @ cp_spans)

(* ---------- json ---------- *)

let to_json t =
  let open Json in
  let entry_json = function
    | Critpath.Origin -> Obj [ ("kind", String "start") ]
    | Critpath.Spawned p -> Obj [ ("kind", String "fork"); ("parent", Int p) ]
    | Critpath.Woken { waker; obj } ->
      Obj
        [
          ("kind", String "wake");
          ("waker", match waker with Some w -> Int w | None -> Null);
          ( "object",
            match obj with Some o -> String (t.name_of o) | None -> Null );
        ]
  in
  let step_json (s : Critpath.step) =
    Obj
      [
        ("tid", Int s.s_tid);
        ("t0", Int s.s_t0);
        ("t1", Int s.s_t1);
        ("entry", entry_json s.s_entry);
        ("run", Int s.s_run);
        ("spin", Int s.s_spin);
        ("sched", Int s.s_sched);
        ("blocked", Int s.s_blocked);
      ]
  in
  let run, spin, sched, blocked = Timeline.totals t.timeline in
  let edge_json (e : Waitfor.edge) =
    Obj
      [
        ("at", Int e.w_at);
        ("tid", Int e.w_tid);
        ("target", String (target_name t e.w_target));
        ("owner", match e.w_owner with Some o -> Int o | None -> Null);
      ]
  in
  Obj
    [
      ("schema_version", Int 1);
      ("makespan", Int t.makespan);
      ("events", Int t.event_count);
      ( "totals",
        Obj
          [
            ("run", Int run);
            ("spin", Int spin);
            ("sched", Int sched);
            ("blocked", Int blocked);
          ] );
      ( "critical_path",
        Obj
          [
            ("total", Int t.critpath.total);
            ("steps", Arr (List.map step_json t.critpath.steps));
          ] );
      ( "by_object",
        Arr
          (List.map
             (fun (key, cycles, steps) ->
               Obj
                 [
                   ("object", String key);
                   ("cycles", Int cycles);
                   ("steps", Int steps);
                   ("share", Float (share t cycles));
                 ])
             (by_object t)) );
      ( "top_blockers",
        Arr
          (List.map
             (fun (who, what, cycles, count) ->
               Obj
                 [
                   ("waker", String who);
                   ("object", String what);
                   ("blocked_cycles", Int cycles);
                   ("wakes", Int count);
                 ])
             (top_blockers t)) );
      ( "waitfor",
        Obj
          [
            ( "cycles",
              Arr
                (List.map
                   (fun (c : Waitfor.cycle) ->
                     Obj
                       [
                         ("at", Int c.c_at);
                         ("seq", Int c.c_seq);
                         ("members", Arr (List.map edge_json c.c_members));
                       ])
                   t.waitfor.cycles) );
            ("final", Arr (List.map edge_json t.waitfor.final));
          ] );
    ]
