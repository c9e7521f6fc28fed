module Tid = Threads_util.Tid

type outcome = { verdict : Interleave.verdict; machine : Machine.t }

type stats = {
  executions : int;
  sleep_blocked : int;
  dpor_truncated : int;
  dpor_steps : int;
  peak_depth : int;
  complete : bool;
}

type dpor_stats = stats

let dpor_stats_zero =
  { executions = 0; sleep_blocked = 0; dpor_truncated = 0; dpor_steps = 0;
    peak_depth = 0; complete = true }

let dpor_stats_add a b =
  {
    executions = a.executions + b.executions;
    sleep_blocked = a.sleep_blocked + b.sleep_blocked;
    dpor_truncated = a.dpor_truncated + b.dpor_truncated;
    dpor_steps = a.dpor_steps + b.dpor_steps;
    peak_depth = max a.peak_depth b.peak_depth;
    complete = a.complete && b.complete;
  }

(* Add a violation string to a set kept as a list of distinct strings. *)
let note found = function
  | Some v -> if not (List.mem v !found) then found := v :: !found
  | None -> ()

(* Re-run [build] from scratch along [path] (steps, newest first), then
   step on while the choice is forced.  A branch point offers every
   runnable thread, the one that ran last first; once [max_preemptions]
   switches away from a still-runnable thread are spent, that thread is
   forced while it stays runnable.  A step with a single candidate is
   forced too.  Returns the machine, the path taken (newest first), its
   length, and either the run's verdict or the candidates of the next
   branch point. *)
let replay ~max_depth ~max_preemptions ~build path =
  let m = Machine.create () in
  build m;
  let nsteps = ref 0 and budget = ref max_preemptions in
  let last = ref 0 (* the thread that ran last, once [!nsteps > 0] *) in
  let runnable = Machine.is_runnable m in
  let step tid =
    if !nsteps > 0 && !last <> tid && runnable !last then decr budget;
    last := tid;
    incr nsteps;
    ignore (Machine.step m tid)
  in
  List.iter
    (fun tid ->
      if not (runnable tid) then failwith "Explore: stale replay prefix";
      step tid)
    (List.rev path);
  (* New steps extend [path] itself, so sibling paths share their prefix. *)
  let taken = ref path in
  let rec drive () =
    if !nsteps >= max_depth then `End Interleave.Step_limit
    else
      match Machine.runnable m with
      | [] -> `End (Interleave.at_rest m)
      | [ t ] -> extend t
      | enabled ->
        if !nsteps > 0 && List.mem !last enabled then
          if !budget <= 0 then extend !last
          else `Branch (!last :: List.filter (fun t -> t <> !last) enabled)
        else `Branch enabled
  and extend t =
    step t;
    taken := t :: !taken;
    drive ()
  in
  let res = drive () in
  (m, !taken, !nsteps, res)

let explore ?(max_preemptions = max_int) ?(stop_at_first = false)
    ?(max_depth = 4000) ?(max_runs = 200_000) ~build check =
  let found = ref [] in
  let executions = ref 0 and truncated = ref 0 in
  let steps = ref 0 and peak = ref 0 in
  (* DFS over paths; each stack entry is a path to replay and expand. *)
  let stack = ref [ [] ] in
  while
    !stack <> [] && !executions < max_runs
    && not (stop_at_first && !found <> [])
  do
    match !stack with
    | [] -> ()
    | path :: rest -> (
      stack := rest;
      let m, path, nsteps, res =
        replay ~max_depth ~max_preemptions ~build path
      in
      steps := !steps + nsteps;
      peak := max !peak nsteps;
      (match res with
      | `Branch candidates ->
        stack := List.map (fun t -> t :: path) candidates @ rest
      | `End verdict ->
        incr executions;
        if verdict = Interleave.Step_limit then incr truncated;
        note found (check { verdict; machine = m }));
      Machine.dispose m)
  done;
  ( List.sort_uniq String.compare !found,
    { executions = !executions; sleep_blocked = 0; dpor_truncated = !truncated;
      dpor_steps = !steps; peak_depth = !peak; complete = !stack = [] } )

(* ---- dynamic partial-order reduction (sleep sets + backtrack sets) ----

   Flanagan & Godefroid's DPOR, replay-based.  The explorer folds the
   machine's [Ev_touch] stream into a footprint for every step: an
   [int array] with one entry per touch, [address * 2 + 1] for a write
   and [address * 2] for a read.  Two steps of different threads are
   dependent iff their footprints conflict ([footprints_conflict]).
   Scheduling causality is part of the footprint via pseudo-addresses
   (every step reads its own scheduler slot; wake/spawn/finish write the
   target's), and host-level package state is declared with
   [Machine.Probe.touch], so the dependence relation is sound for the
   cooperative packages too.

   The exploration tree is kept as a persistent path of nodes.  Each run
   replays the unchanged part of the path bare and observes only the
   steps it has not taken before; a per-address index of the path's
   last accesses finds each new step's race as it happens and seeds a
   backtrack point, and sleep sets prune branches whose first step
   commutes with everything an already-explored sibling did.  Thread
   sets are int bitmasks (bit [t] for thread [t]), so an observed step
   builds no list, set or tuple.  The search never stops at the first
   error: it collects the set of distinct violation strings, so two runs
   that explore the space in different orders (or split it across
   domains) report identical results. *)

(* A footprint entry's address, and whether it is a write. *)
let fp_addr e = e asr 1
let fp_writes e = e land 1 = 1

let rec conflict_from f1 f2 i j =
  if i = Array.length f1 then false
  else if j = Array.length f2 then conflict_from f1 f2 (i + 1) 0
  else
    let e1 = f1.(i) and e2 = f2.(j) in
    (fp_addr e1 = fp_addr e2 && fp_writes (e1 lor e2))
    || conflict_from f1 f2 i (j + 1)

(* Two footprints conflict iff they share an address and at least one
   side writes it: the dependence relation sleep sets are keyed on. *)
let footprints_conflict f1 f2 = conflict_from f1 f2 0 0

(* Thread sets: bit [t] stands for thread [t]. *)
let max_threads = Sys.int_size - 1
let bit t = 1 lsl t
let mem t s = s land (1 lsl t) <> 0
let branching s = s land (s - 1) <> 0

(* The lowest thread at or above [t] in [s], which holds one. *)
let rec lowest_from s t = if mem t s then t else lowest_from s (t + 1)
let lowest s = lowest_from s 0

(* The highest thread in non-empty [s], at or above [t]. *)
let rec highest_from s t = if s lsr t <= 1 then t else highest_from s (t + 1)

(* [acc] plus each thread of [s] with its footprint in [fps]. *)
let rec add_sleepers fps s acc =
  if s = 0 then acc
  else
    let t = lowest s in
    add_sleepers fps (s land lnot (bit t)) ((t, fps.(t)) :: acc)

(* The runnable threads of [m] from [from] on, as a set. *)
let rec enabled_from m from acc =
  let t = Machine.nth_runnable m ~from ~intr:false None 0 in
  if t < 0 then acc
  else if t >= max_threads then
    Printf.ksprintf invalid_arg
      "Explore: DPOR holds at most %d threads (t0..t%d) in its thread sets; \
       t%d is runnable"
      max_threads (max_threads - 1) t
  else enabled_from m (t + 1) (acc lor bit t)

(* A sleep set is a mask, and each member with the footprint of the
   step it would take, which only the conflict filter [wake] reads. *)
let rec mask_of = function [] -> 0 | (t, _) :: rest -> bit t lor mask_of rest

(* [sleepers] less those whose step conflicts with [fp]; [sleepers]
   itself when none does. *)
let rec wake fp = function
  | [] -> []
  | ((_, f) as e) :: rest as l ->
    let rest' = wake fp rest in
    if footprints_conflict f fp then rest'
    else if rest' == rest then l
    else e :: rest'

type dnode = {
  d_enabled : int;  (* enabled in the pre-state of this step *)
  mutable d_chosen : Tid.t;  (* branch currently being explored *)
  d_fps : int array array;
      (* by thread, the footprint of each child step taken from this
         node, [d_chosen]'s included; cached so completed siblings can
         enter the sleep set on later branches.  A pending step's
         footprint is a function of the pre-state, which replays
         identically, so the cache stays valid *)
  mutable d_backtrack : int;
  mutable d_done : int;  (* children whose subtrees are explored *)
  d_sleep : int;  (* sleep set on entry *)
  d_sleepers : (Tid.t * int array) list;  (* its members' footprints *)
  mutable d_undo : int;
      (* length of the race index's undo log before the chosen step *)
}

(* A growable int buffer. *)
let reserve buf n =
  if Array.length !buf < n then begin
    let bigger = Array.make (max n (2 * Array.length !buf)) 0 in
    Array.blit !buf 0 bigger 0 (Array.length !buf);
    buf := bigger
  end

module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = a land max_int
end)

(* One DPOR search under a frozen [prefix] of steps, entering the depth
   below it with sleep set [sleep]; backtrack points inside the prefix
   are discarded.  With [hand_off = (n, give)], every enabled thread is
   a backtrack candidate at the first [n] branch points (steps with more
   than one enabled thread), and the subtree below the [n]-th is not
   explored but given to [give] as the path to it and its sleep set on
   entry.  [progress] is called after every run with the cumulative
   statistics so far. *)
let dpor ~max_depth ~max_runs ~prefix ~sleep:sleep0 ?hand_off ?progress
    ~build check =
  let frozen = List.length prefix in
  let prefix = Array.of_list prefix in
  let sleep0_mask = mask_of sleep0 and splitting = hand_off <> None in
  (* The path from the root, by depth; it persists across replays.
     [branches] counts its branch points. *)
  let nodes = ref [||] and plen = ref 0 and branches = ref 0 in
  (* The race index.  Each address gets a dense slot on first sight;
     per slot, the depths of the path's last write to it and of its last
     access of any kind (-1: none).  [undo] logs, three ints an entry,
     the slot of each footprint entry and its two depths before the
     step; a node's [d_undo] is where its step's entries begin, and they
     are restored when the node is popped or re-chosen. *)
  let slots = Slots.create 64 in
  let last_w = ref [||] and last_a = ref [||] in
  let undo = ref (Array.make 192 0) and undo_len = ref 0 in
  let slot a =
    match Slots.find slots a with
    | s -> s
    | exception Not_found ->
      let s = Slots.length slots in
      Slots.add slots a s;
      if s = Array.length !last_w then begin
        let grow old = Array.append old (Array.make (max 64 s) (-1)) in
        last_w := grow !last_w;
        last_a := grow !last_a
      end;
      s
  in
  (* The chosen step's footprint, gathered from [Ev_touch]. *)
  let touched = ref (Array.make 64 0) and ntouched = ref 0 in
  let found = ref [] in
  let executions = ref 0 and sleep_blocked = ref 0 in
  let truncated = ref 0 and steps = ref 0 in
  let peak = ref 0 in
  (* Race detection for the step just taken at depth [i]: the most
     recent earlier step it depends on is the latest conflicting access
     in the index.  If that step belongs to another thread, the later
     thread becomes a backtrack candidate there (or, if it was not yet
     enabled there, every enabled thread); older races are reached
     through that step.  Frozen prefix nodes never get backtrack
     points: the caller covers every alternative there. *)
  let race i nd =
    let fp = nd.d_fps.(nd.d_chosen) and base = !undo_len in
    let n = Array.length fp in
    reserve undo (base + (3 * n));
    let u = !undo and j = ref (-1) in
    for k = 0 to n - 1 do
      let s = slot (fp_addr fp.(k)) and o = base + (3 * k) in
      u.(o) <- s;
      u.(o + 1) <- !last_w.(s);
      u.(o + 2) <- !last_a.(s);
      let d = u.(if fp_writes fp.(k) then o + 2 else o + 1) in
      if d > !j then j := d
    done;
    (if !j >= frozen then
       let nj = !nodes.(!j) and p = nd.d_chosen in
       if nj.d_chosen <> p then
         nj.d_backtrack <-
           nj.d_backtrack
           lor (if mem p nj.d_enabled then bit p else nj.d_enabled));
    for k = 0 to n - 1 do
      let s = u.(base + (3 * k)) in
      if fp_writes fp.(k) then !last_w.(s) <- i;
      !last_a.(s) <- i
    done;
    nd.d_undo <- base;
    undo_len := base + (3 * n)
  in
  let push nd =
    if !plen = Array.length !nodes then
      nodes := Array.append !nodes (Array.make (max 16 !plen) nd);
    !nodes.(!plen) <- nd;
    incr plen;
    if branching nd.d_enabled then incr branches
  in
  (* One run, to a maximal execution or a hand-off.  Only the deepest
     node changed since the last run, so the path above it replays with
     bare [Machine.step]: its footprints, sleep sets and race-index
     entries are all still recorded.  From the deepest node on, steps
     are observed, and the run extends by always taking the lowest
     enabled thread not in the sleep set, creating fresh nodes as it
     goes. *)
  let run_one () =
    let m = Machine.create () in
    build m;
    for i = 0 to !plen - 2 do
      ignore (Machine.step m !nodes.(i).d_chosen)
    done;
    steps := !steps + max 0 (!plen - 1);
    Machine.subscribe m Machine.K_touch (function
      | Machine.Ev_touch (a, w) ->
        reserve touched (!ntouched + 1);
        !touched.(!ntouched) <- (2 * a) + Bool.to_int w;
        incr ntouched
      | _ -> ());
    (* The sleep set entering the depth being extended. *)
    let sleep = ref 0 and sleepers = ref [] in
    (* Take [nd]'s chosen step at depth [i].  The sleep set below it:
       inherited sleepers plus fully-explored siblings (their cached
       footprints come from [d_fps]), minus any whose step conflicts
       with the step just taken. *)
    let take i nd =
      ntouched := 0;
      ignore (Machine.step m nd.d_chosen);
      incr steps;
      let fp = Array.sub !touched 0 !ntouched in
      nd.d_fps.(nd.d_chosen) <- fp;
      race i nd;
      sleepers :=
        wake fp
          (add_sleepers nd.d_fps (nd.d_done land lnot nd.d_sleep)
             nd.d_sleepers);
      sleep := mask_of !sleepers
    in
    if !plen > 0 then take (!plen - 1) !nodes.(!plen - 1);
    let finish verdict =
      incr executions;
      note found (check { verdict; machine = m })
    in
    let rec extend () =
      if !plen = frozen then begin
        sleep := sleep0_mask;
        sleepers := sleep0
      end;
      match hand_off with
      | Some (n, give) when !branches = n ->
        give (List.init !plen (fun i -> !nodes.(i).d_chosen)) !sleepers
      | _ when !plen >= max_depth ->
        incr truncated;
        finish Interleave.Step_limit
      | _ ->
        let enabled = enabled_from m 0 0 in
        if enabled = 0 then finish (Interleave.at_rest m)
        else
          let awake = enabled land lnot !sleep in
          if !plen >= frozen && awake = 0 then begin
            (* Every enabled thread is asleep: any continuation is
               equivalent to an execution already explored. *)
            incr executions;
            incr sleep_blocked
          end
          else begin
            let c =
              if !plen < frozen then begin
                let c = prefix.(!plen) in
                if not (mem c enabled) then
                  failwith "Explore: stale DPOR prefix";
                c
              end
              else lowest awake
            in
            let nd =
              {
                d_enabled = enabled;
                d_chosen = c;
                d_fps = Array.make (highest_from enabled 0 + 1) [||];
                d_backtrack =
                  (if splitting && branching enabled then enabled
                   else bit c);
                d_done = 0;
                d_sleep = !sleep;
                d_sleepers = !sleepers;
                d_undo = 0;
              }
            in
            push nd;
            take (!plen - 1) nd;
            extend ()
          end
    in
    extend ();
    Machine.dispose m
  in
  (* Pop to the deepest node with an unexplored backtrack candidate;
     candidates already in the node's sleep set are pruned outright. *)
  let rec backtrack () =
    if !plen = 0 then false
    else begin
      let nd = !nodes.(!plen - 1) and u = !undo in
      (* Undo the race-index entries of the chosen step. *)
      while !undo_len > nd.d_undo do
        undo_len := !undo_len - 3;
        let s = u.(!undo_len) in
        !last_w.(s) <- u.(!undo_len + 1);
        !last_a.(s) <- u.(!undo_len + 2)
      done;
      nd.d_done <- nd.d_done lor bit nd.d_chosen;
      let rec pick () =
        let todo = nd.d_backtrack land lnot nd.d_done in
        if todo = 0 then false
        else
          let c = lowest todo in
          if mem c nd.d_sleep then begin
            incr sleep_blocked;
            nd.d_done <- nd.d_done lor bit c;
            pick ()
          end
          else begin
            nd.d_chosen <- c;
            true
          end
      in
      pick ()
      || begin
        decr plen;
        if branching nd.d_enabled then decr branches;
        backtrack ()
      end
    end
  in
  let budget_ok = ref true in
  let continue_ = ref true in
  while !continue_ do
    if !executions >= max_runs then begin
      budget_ok := false;
      continue_ := false
    end
    else begin
      run_one ();
      if !plen > !peak then peak := !plen;
      (* Host-side observation only: the snapshot is advisory (the
         caller throttles/renders it) and feeds nothing back into the
         search, so instrumented explorations are schedule-identical. *)
      (match progress with
      | Some cb ->
        cb
          { executions = !executions; sleep_blocked = !sleep_blocked;
            dpor_truncated = !truncated; dpor_steps = !steps;
            peak_depth = !peak; complete = true }
      | None -> ());
      continue_ := backtrack ()
    end
  done;
  ( List.sort_uniq String.compare !found,
    { executions = !executions; sleep_blocked = !sleep_blocked;
      dpor_truncated = !truncated; dpor_steps = !steps;
      peak_depth = !peak; complete = !budget_ok } )

(* ---- prefix-parallel frontier splitting ----

   A first search enumerates the top [split_branches] branch points as
   sequential DPOR would if it back-tracked there over every enabled
   thread: siblings in a fixed order, each with the usual sleep set.
   Each subtree below that frontier is handed, with its sleep set on
   entry, to an independent DPOR instance under its frozen prefix.
   Backtrack points that race analysis would place inside a frozen
   prefix are dropped: the frontier already covers every alternative
   there, so together the searches are exactly that sequential search.
   The split is performed regardless of [jobs], so reported violations
   and statistics are identical for any worker count; [jobs] only
   chooses how many domains execute the per-prefix searches. *)

let explore_dpor_parallel ?(max_depth = 4000) ?(max_runs = 1_000_000)
    ?(split_branches = 2) ?(jobs = 1) ?on_frontier ?progress ?telemetry ~build
    check =
  let frontier = ref [] in
  let give prefix sleep = frontier := (prefix, sleep) :: !frontier in
  let pre_found, pre =
    dpor ~max_depth ~max_runs ~prefix:[] ~sleep:[]
      ~hand_off:(split_branches, give) ~build check
  in
  let prefixes = Array.of_list (List.rev !frontier) in
  Option.iter (fun f -> f (Array.length prefixes)) on_frontier;
  (* Aggregate progress across the per-prefix searches: each search
     reports cumulative counters for its own subtree, so every cell
     keeps a last-seen snapshot and publishes only the delta into the
     shared atomics before invoking the caller's callback with the
     fleet-wide view.  Purely observational — the counters never feed
     back into any search. *)
  let agg_exec = Atomic.make pre.executions
  and agg_sleep = Atomic.make pre.sleep_blocked
  and agg_steps = Atomic.make pre.dpor_steps
  and agg_peak = Atomic.make 0 in
  let rec atomic_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v
  in
  let progress_for () =
    match progress with
    | None -> None
    | Some cb ->
      let prev = ref dpor_stats_zero in
      Some
        (fun (st : dpor_stats) ->
          let de = st.executions - !prev.executions
          and ds = st.sleep_blocked - !prev.sleep_blocked
          and dp = st.dpor_steps - !prev.dpor_steps in
          prev := st;
          let e = Atomic.fetch_and_add agg_exec de + de in
          let s = Atomic.fetch_and_add agg_sleep ds + ds in
          let p = Atomic.fetch_and_add agg_steps dp + dp in
          atomic_max agg_peak st.peak_depth;
          cb
            { executions = e; sleep_blocked = s; dpor_truncated = 0;
              dpor_steps = p; peak_depth = Atomic.get agg_peak;
              complete = true })
  in
  let results =
    Threads_runner.Matrix.map ?telemetry ~jobs ~n:(Array.length prefixes)
      (fun i ->
        let prefix, sleep = prefixes.(i) in
        dpor ~max_depth ~max_runs ~prefix ~sleep ?progress:(progress_for ())
          ~build check)
  in
  let violations, stats =
    Array.fold_left
      (fun (vs, st) (v, s) -> (List.rev_append v vs, dpor_stats_add st s))
      (pre_found, pre) results
  in
  (List.sort_uniq String.compare violations, stats)

