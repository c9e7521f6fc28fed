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
   machine's [Ev_touch] stream into a footprint (list of (address,
   is-write)) for every step; two steps of different threads are
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
   commutes with everything an already-explored sibling did.  The
   search never stops at the first error: it collects the set of
   distinct violation strings, so two runs that explore the space in
   different orders (or split it across domains) report identical
   results. *)

type dnode = {
  d_enabled : Tid.t list;  (* enabled in the pre-state of this step *)
  mutable d_chosen : Tid.t;  (* branch currently being explored *)
  mutable d_fp : (int * bool) list;  (* footprint of the chosen step *)
  mutable d_tried : (Tid.t * (int * bool) list) list;
      (* footprint of each child step taken from this node, cached so
         completed siblings can enter the sleep set on later branches;
         a pending step's footprint is a function of the pre-state,
         which replays identically, so the cache stays valid *)
  mutable d_backtrack : Tid.Set.t;
  mutable d_done : Tid.Set.t;  (* children whose subtrees are explored *)
  d_sleep : (Tid.t * (int * bool) list) list;  (* sleep set on entry *)
  mutable d_undo : (int * (int * int)) list;
      (* race-index entries the chosen step overwrote, newest first *)
}

(* Two footprints conflict iff they share an address and at least one
   side writes it: the dependence relation sleep sets are keyed on. *)
let footprints_conflict f1 f2 =
  List.exists
    (fun (a1, w1) ->
      List.exists (fun (a2, w2) -> a1 = a2 && (w1 || w2)) f2)
    f1

(* Subscribe a footprint fold to [m] and return a stepper: [step tid]
   runs one step of [tid] and returns the (address, is-write) pairs it
   touched, newest first. *)
let footprint_stepper m =
  let fp = ref [] in
  Machine.subscribe m Machine.K_touch (function
    | Machine.Ev_touch touched -> fp := touched :: !fp
    | _ -> ());
  fun tid ->
    fp := [];
    ignore (Machine.step m tid);
    !fp

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
  (* The path from the root, by depth; it persists across replays.
     [branches] counts its branch points. *)
  let nodes = ref [||] and plen = ref 0 and branches = ref 0 in
  let branching = function _ :: _ :: _ -> true | _ -> false in
  (* Per address, the depths of the path's last write to it and of its
     last access of any kind (-1: none).  Each node's [d_undo] restores
     what its step overwrote when the node is popped or re-chosen. *)
  let last : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let found = ref [] in
  let executions = ref 0 and sleep_blocked = ref 0 in
  let truncated = ref 0 and steps = ref 0 in
  let peak = ref 0 in
  (* Sleep set entering the branch below [nd]: inherited sleepers plus
     fully-explored siblings (their cached footprints come from
     [d_tried]), minus any whose step conflicts with the step just
     taken. *)
  let sleep_below nd =
    let slept =
      Tid.Set.fold
        (fun t acc ->
          if t = nd.d_chosen || List.mem_assoc t acc then acc
          else
            match List.assoc_opt t nd.d_tried with
            | Some f -> (t, f) :: acc
            | None -> acc)
        nd.d_done nd.d_sleep
    in
    List.filter (fun (_, f) -> not (footprints_conflict f nd.d_fp)) slept
  in
  (* Race detection for the step just taken at depth [i]: the most
     recent earlier step it depends on is the latest conflicting access
     in the index.  If that step belongs to another thread, the later
     thread becomes a backtrack candidate there (or, if it was not yet
     enabled there, every enabled thread); older races are reached
     through that step.  Frozen prefix nodes never get backtrack
     points: the caller covers every alternative there. *)
  let race i nd =
    let j =
      List.fold_left
        (fun j (a, w) ->
          match Hashtbl.find_opt last a with
          | Some (lw, la) -> max j (if w then la else lw)
          | None -> j)
        (-1) nd.d_fp
    in
    (if j >= frozen then
       let nj = !nodes.(j) and p = nd.d_chosen in
       if nj.d_chosen <> p then
         nj.d_backtrack <-
           (if List.mem p nj.d_enabled then Tid.Set.add p nj.d_backtrack
            else
              Tid.Set.union nj.d_backtrack (Tid.Set.of_int_list nj.d_enabled)));
    List.iter
      (fun (a, w) ->
        let ((lw, _) as prev) =
          Option.value (Hashtbl.find_opt last a) ~default:(-1, -1)
        in
        nd.d_undo <- (a, prev) :: nd.d_undo;
        Hashtbl.replace last a ((if w then i else lw), i))
      nd.d_fp
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
     are observed, and the run extends by always taking the first
     enabled thread not in the sleep set, creating fresh nodes as it
     goes. *)
  let run_one () =
    let m = Machine.create () in
    build m;
    for i = 0 to !plen - 2 do
      ignore (Machine.step m !nodes.(i).d_chosen)
    done;
    steps := !steps + max 0 (!plen - 1);
    let step = footprint_stepper m in
    let sleep = ref [] in
    let take i nd =
      nd.d_fp <- step nd.d_chosen;
      incr steps;
      if not (List.mem_assoc nd.d_chosen nd.d_tried) then
        nd.d_tried <- (nd.d_chosen, nd.d_fp) :: nd.d_tried;
      race i nd;
      sleep := sleep_below nd
    in
    if !plen > 0 then take (!plen - 1) !nodes.(!plen - 1);
    let finish verdict =
      incr executions;
      note found (check { verdict; machine = m })
    in
    let rec extend () =
      if !plen = frozen then sleep := sleep0;
      match hand_off with
      | Some (n, give) when !branches = n ->
        give (List.init !plen (fun i -> !nodes.(i).d_chosen)) !sleep
      | _ when !plen >= max_depth ->
        incr truncated;
        finish Interleave.Step_limit
      | _ -> (
        match Machine.runnable m with
        | [] -> finish (Interleave.at_rest m)
        | enabled -> (
          let choice =
            if !plen < frozen then begin
              let c = prefix.(!plen) in
              if not (List.mem c enabled) then
                failwith "Explore: stale DPOR prefix";
              Some c
            end
            else
              List.find_opt (fun t -> not (List.mem_assoc t !sleep)) enabled
          in
          match choice with
          | None ->
            (* Every enabled thread is asleep: any continuation is
               equivalent to an execution already explored. *)
            incr executions;
            incr sleep_blocked
          | Some c ->
            let nd =
              {
                d_enabled = enabled;
                d_chosen = c;
                d_fp = [];
                d_tried = [];
                d_backtrack =
                  (if hand_off <> None && branching enabled then
                     Tid.Set.of_int_list enabled
                   else Tid.Set.singleton c);
                d_done = Tid.Set.empty;
                d_sleep = !sleep;
                d_undo = [];
              }
            in
            push nd;
            take (!plen - 1) nd;
            extend ()))
    in
    extend ();
    Machine.dispose m
  in
  (* Pop to the deepest node with an unexplored backtrack candidate;
     candidates already in the node's sleep set are pruned outright. *)
  let rec backtrack () =
    if !plen = 0 then false
    else begin
      let nd = !nodes.(!plen - 1) in
      List.iter (fun (a, prev) -> Hashtbl.replace last a prev) nd.d_undo;
      nd.d_undo <- [];
      nd.d_done <- Tid.Set.add nd.d_chosen nd.d_done;
      let rec pick () =
        match Tid.Set.min_elt_opt (Tid.Set.diff nd.d_backtrack nd.d_done) with
        | None -> None
        | Some c ->
          if List.mem_assoc c nd.d_sleep then begin
            incr sleep_blocked;
            nd.d_done <- Tid.Set.add c nd.d_done;
            pick ()
          end
          else Some c
      in
      match pick () with
      | Some c ->
        nd.d_chosen <- c;
        nd.d_fp <- [];
        true
      | None ->
        decr plen;
        if branching nd.d_enabled then decr branches;
        backtrack ()
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
    ?(split_branches = 2) ?(jobs = 1) ?progress ?telemetry ~build check =
  let frontier = ref [] in
  let give prefix sleep = frontier := (prefix, sleep) :: !frontier in
  let pre_found, pre =
    dpor ~max_depth ~max_runs ~prefix:[] ~sleep:[]
      ~hand_off:(split_branches, give) ~build check
  in
  let prefixes = Array.of_list (List.rev !frontier) in
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

