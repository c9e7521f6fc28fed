module Tid = Threads_util.Tid

type outcome = {
  verdict : Interleave.verdict;
  machine : Machine.t;
  schedule : Tid.t list;
}

type stats = {
  terminal_runs : int;
  truncated_runs : int;
  total_steps : int;
}

(* Run [build] following [prefix]; afterwards keep stepping while the
   choice is forced (a single runnable thread).  Returns the machine, the
   full schedule actually taken, and either the terminal verdict or the
   enabled set at the first real branch point. *)
let run_prefix ~max_depth ~build prefix =
  let m = Machine.create () in
  build m;
  let taken = ref [] in
  let steps = ref 0 in
  let do_step tid =
    taken := tid :: !taken;
    incr steps;
    ignore (Machine.step m tid)
  in
  List.iter
    (fun tid ->
      match Machine.status m tid with
      | Machine.Runnable -> do_step tid
      | _ -> failwith "Explore: stale replay prefix")
    prefix;
  let rec drive () =
    if !steps >= max_depth then `Truncated
    else
      match Machine.runnable m with
      | [] ->
        if Machine.live m then
          `Terminal
            (Interleave.Deadlock
               (List.filter
                  (fun tid -> Machine.status m tid = Machine.Blocked)
                  (Machine.all_tids m)))
        else `Terminal Interleave.Completed
      | [ only ] ->
        do_step only;
        drive ()
      | several -> `Branch several
  in
  let res = drive () in
  (m, List.rev !taken, res, !steps)

let explore ?(max_depth = 4000) ?(max_runs = 200_000) ~build check =
  let terminal = ref 0 and truncated = ref 0 and steps = ref 0 in
  let error = ref None in
  (* DFS over schedule prefixes.  Each stack entry is a prefix to expand. *)
  let stack = ref [ [] ] in
  let runs = ref 0 in
  while !error = None && !stack <> [] && !runs < max_runs do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
      stack := rest;
      incr runs;
      let m, schedule, res, nsteps = run_prefix ~max_depth ~build prefix in
      steps := !steps + nsteps;
      (match res with
      | `Terminal verdict ->
        incr terminal;
        error := check { verdict; machine = m; schedule }
      | `Truncated ->
        incr truncated;
        error := check { verdict = Interleave.Step_limit; machine = m; schedule }
      | `Branch enabled ->
        (* Expand: one new prefix per enabled thread.  [schedule] already
           includes the forced steps taken after the prefix. *)
        let children = List.map (fun tid -> schedule @ [ tid ]) enabled in
        stack := List.rev children @ !stack)
  done;
  ( !error,
    { terminal_runs = !terminal; truncated_runs = !truncated;
      total_steps = !steps } )

(* Like [explore], but never stops early: collects the set of distinct
   violation strings over the whole tree, for comparison against the
   DPOR traversal.  The extra boolean is false iff the [max_runs] budget
   ran out before the tree was exhausted. *)
let explore_all ?(max_depth = 4000) ?(max_runs = 200_000) ~build check =
  let terminal = ref 0 and truncated = ref 0 and steps = ref 0 in
  let violations = ref [] in
  let record = function
    | Some v -> if not (List.mem v !violations) then violations := v :: !violations
    | None -> ()
  in
  let stack = ref [ [] ] in
  let runs = ref 0 in
  while !stack <> [] && !runs < max_runs do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
      stack := rest;
      incr runs;
      let m, schedule, res, nsteps = run_prefix ~max_depth ~build prefix in
      steps := !steps + nsteps;
      (match res with
      | `Terminal verdict ->
        incr terminal;
        record (check { verdict; machine = m; schedule })
      | `Truncated ->
        incr truncated;
        record (check { verdict = Interleave.Step_limit; machine = m; schedule })
      | `Branch enabled ->
        let children = List.map (fun tid -> schedule @ [ tid ]) enabled in
        stack := List.rev children @ !stack)
  done;
  ( List.sort_uniq String.compare !violations,
    { terminal_runs = !terminal; truncated_runs = !truncated;
      total_steps = !steps },
    !stack = [] )

(* ---- dynamic partial-order reduction (sleep sets + backtrack sets) ----

   Flanagan & Godefroid's DPOR, replay-based.  The explorer folds the
   machine's [Ev_touch] stream into a footprint (list of (address,
   is-write)) for every step; two steps of
   different threads are dependent iff their footprints conflict
   ([Machine.footprints_conflict]).  Scheduling causality is part of the
   footprint via pseudo-addresses (every step reads its own scheduler
   slot; wake/spawn/finish write the target's), and host-level package
   state is declared with [Machine.Probe.touch], so the dependence
   relation is sound for the cooperative packages too.

   The exploration tree is kept as a persistent path of nodes; after each
   maximal execution a race analysis walks the path and seeds backtrack
   points, and sleep sets prune branches whose first step commutes with
   everything an already-explored sibling did.  Unlike [explore], the
   search never stops at the first error: it collects the set of distinct
   violation strings, so two runs that explore the space in different
   orders (or split it across domains) report identical results. *)

type dpor_stats = {
  executions : int;  (** maximal (terminal or truncated) replays run *)
  sleep_blocked : int;  (** branches pruned by sleep sets *)
  dpor_truncated : int;  (** executions cut off by the depth bound *)
  dpor_steps : int;  (** instructions executed across all replays *)
  peak_depth : int;  (** deepest exploration path reached *)
  complete : bool;  (** false iff the [max_runs] budget was exhausted *)
}

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
}

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

let explore_dpor ?(max_depth = 4000) ?(max_runs = 1_000_000)
    ?(prefix = []) ?progress ~build check =
  let frozen = List.length prefix in
  let prefix = Array.of_list prefix in
  (* Deepest node first; the path persists across replays. *)
  let path : dnode list ref = ref [] in
  let plen = ref 0 in
  let violations = ref [] in
  let executions = ref 0 and sleep_blocked = ref 0 in
  let truncated = ref 0 and steps = ref 0 in
  let peak = ref 0 in
  let record = function
    | Some v -> if not (List.mem v !violations) then violations := v :: !violations
    | None -> ()
  in
  let schedule () = List.rev_map (fun nd -> nd.d_chosen) !path in
  let indep_against fp entries =
    List.filter
      (fun (_, f) -> not (Machine.footprints_conflict f fp))
      entries
  in
  (* Sleep set entering the branch below [nd], given the sleep set on
     entry to [nd]: inherited sleepers plus fully-explored siblings
     (their cached footprints come from [d_tried]), minus any whose step
     conflicts with the step just taken. *)
  let sleep_below nd sleep_in =
    let slept =
      Tid.Set.fold
        (fun t acc ->
          if t = nd.d_chosen || List.mem_assoc t acc then acc
          else
            match List.assoc_opt t nd.d_tried with
            | Some f -> (t, f) :: acc
            | None -> acc)
        nd.d_done sleep_in
    in
    indep_against nd.d_fp slept
  in
  (* One maximal execution: replay the persistent path from the root,
     then extend by always taking the first enabled thread not in the
     sleep set, creating fresh nodes as we go. *)
  let run_one () =
    incr executions;
    let m = Machine.create () in
    build m;
    let step = footprint_stepper m in
    let sleep = ref [] in
    let replay nd =
      nd.d_fp <- step nd.d_chosen;
      incr steps;
      if not (List.mem_assoc nd.d_chosen nd.d_tried) then
        nd.d_tried <- (nd.d_chosen, nd.d_fp) :: nd.d_tried;
      sleep := sleep_below nd !sleep
    in
    List.iter replay (List.rev !path);
    let push nd =
      path := nd :: !path;
      incr plen
    in
    let rec extend () =
      if !plen >= max_depth then begin
        incr truncated;
        record
          (check
             { verdict = Interleave.Step_limit; machine = m;
               schedule = schedule () })
      end
      else
        match Machine.runnable m with
        | [] ->
          let verdict =
            if Machine.live m then
              Interleave.Deadlock
                (List.filter
                   (fun tid -> Machine.status m tid = Machine.Blocked)
                   (Machine.all_tids m))
            else Interleave.Completed
          in
          record (check { verdict; machine = m; schedule = schedule () })
        | enabled -> (
          let forced =
            if !plen < frozen then Some prefix.(!plen) else None
          in
          let choice =
            match forced with
            | Some c ->
              if not (List.mem c enabled) then
                failwith "Explore: stale DPOR prefix";
              Some c
            | None ->
              List.find_opt
                (fun t -> not (List.mem_assoc t !sleep))
                enabled
          in
          match choice with
          | None ->
            (* Every enabled thread is asleep: any continuation is
               equivalent to an execution already explored. *)
            incr sleep_blocked
          | Some c ->
            let nd =
              {
                d_enabled = enabled;
                d_chosen = c;
                d_fp = [];
                d_tried = [];
                d_backtrack = Tid.Set.singleton c;
                d_done = Tid.Set.empty;
                d_sleep = !sleep;
              }
            in
            push nd;
            nd.d_fp <- step c;
            incr steps;
            nd.d_tried <- [ (c, nd.d_fp) ];
            sleep := sleep_below nd !sleep;
            extend ())
    in
    extend ()
  in
  (* Race analysis: for every executed step, find the most recent earlier
     step it depends on; if that step belongs to another thread, record
     the later thread as a backtrack candidate at the earlier node (or,
     if it was not yet enabled there, conservatively every enabled
     thread).  Frozen prefix nodes never accumulate backtrack points —
     the caller enumerates all alternatives at those depths itself. *)
  let analyze () =
    let arr = Array.of_list (List.rev !path) in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      let p = arr.(i).d_chosen and fpi = arr.(i).d_fp in
      let rec scan j =
        if j >= 0 then begin
          let nj = arr.(j) in
          if Machine.footprints_conflict nj.d_fp fpi then begin
            if nj.d_chosen <> p && j >= frozen then
              if List.mem p nj.d_enabled then
                nj.d_backtrack <- Tid.Set.add p nj.d_backtrack
              else
                nj.d_backtrack <-
                  Tid.Set.union nj.d_backtrack
                    (Tid.Set.of_int_list nj.d_enabled)
            (* Dependent step found (own or foreign): stop — older races
               are reached transitively through this step's own analysis. *)
          end
          else scan (j - 1)
        end
      in
      scan (i - 1)
    done
  in
  (* Pop to the deepest node with an unexplored backtrack candidate;
     candidates already in the node's sleep set are pruned outright. *)
  let rec backtrack () =
    match !path with
    | [] -> false
    | nd :: rest ->
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
      (match pick () with
      | Some c ->
        nd.d_chosen <- c;
        nd.d_fp <- [];
        true
      | None ->
        path := rest;
        decr plen;
        backtrack ())
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
      analyze ();
      continue_ := backtrack ()
    end
  done;
  ( List.sort_uniq String.compare !violations,
    { executions = !executions; sleep_blocked = !sleep_blocked;
      dpor_truncated = !truncated; dpor_steps = !steps;
      peak_depth = !peak; complete = !budget_ok } )

(* ---- prefix-parallel frontier splitting ----

   Enumerate every schedule prefix down to [split_branches] branch points
   (exhaustively — no pruning, so nothing is lost at the frontier), then
   run an independent DPOR instance under each frozen prefix.  Backtrack
   points that race analysis would place inside a frozen prefix are
   dropped: the enumeration already covers every alternative there, so
   the union over prefixes still covers every Mazurkiewicz trace.  The
   split is performed regardless of [jobs], so reported violations and
   statistics are identical for any worker count; [jobs] only chooses how
   many domains execute the per-prefix searches. *)

let explore_dpor_parallel ?(max_depth = 4000) ?(max_runs = 1_000_000)
    ?(split_branches = 2) ?(jobs = 1) ?progress ?telemetry ~build check =
  let pre_violations = ref [] in
  let pre = ref dpor_stats_zero in
  let record = function
    | Some v ->
      if not (List.mem v !pre_violations) then
        pre_violations := v :: !pre_violations
    | None -> ()
  in
  let frontier = ref [ [] ] in
  for _ = 1 to split_branches do
    frontier :=
      List.concat_map
        (fun p ->
          let m, schedule, res, nsteps = run_prefix ~max_depth ~build p in
          pre := { !pre with dpor_steps = !pre.dpor_steps + nsteps };
          match res with
          | `Branch enabled ->
            List.map (fun tid -> schedule @ [ tid ]) enabled
          | `Terminal verdict ->
            (* The whole program ends before the split depth: check it
               here, once; there is no subtree to hand to a worker. *)
            pre := { !pre with executions = !pre.executions + 1 };
            record (check { verdict; machine = m; schedule });
            []
          | `Truncated ->
            pre :=
              { !pre with executions = !pre.executions + 1;
                dpor_truncated = !pre.dpor_truncated + 1 };
            record
              (check
                 { verdict = Interleave.Step_limit; machine = m; schedule });
            [])
        !frontier
  done;
  let prefixes = Array.of_list !frontier in
  let pre_stats_base = !pre in
  (* Aggregate progress across the per-prefix searches: each search
     reports cumulative counters for its own subtree, so every cell
     keeps a last-seen snapshot and publishes only the delta into the
     shared atomics before invoking the caller's callback with the
     fleet-wide view.  Purely observational — the counters never feed
     back into any search. *)
  let agg_exec = Atomic.make pre_stats_base.executions
  and agg_sleep = Atomic.make pre_stats_base.sleep_blocked
  and agg_steps = Atomic.make pre_stats_base.dpor_steps
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
        explore_dpor ~max_depth ~max_runs ~prefix:prefixes.(i)
          ?progress:(progress_for ()) ~build check)
  in
  let violations, stats =
    Array.fold_left
      (fun (vs, st) (v, s) -> (List.rev_append v vs, dpor_stats_add st s))
      (!pre_violations, !pre) results
  in
  (List.sort_uniq String.compare violations, stats)

(* ---- delay-bounded (CHESS-style) search ----

   The baseline scheduler is non-preemptive: the current thread runs until
   it blocks or finishes; at such natural switch points every enabled
   thread is a (free) choice.  Additionally up to [max_preemptions]
   involuntary switches may be inserted anywhere.  Musuvathi & Qadeer's
   observation holds here too: most concurrency bugs need only one or two
   preemptions, so the polynomially-sized bounded space finds them where
   plain DFS/BFS over all interleavings drowns. *)

(* Replay [prefix] (a list of chosen tids, one per choice point), then
   report the next choice point or the terminal verdict. *)
let run_prefix_bounded ~max_depth ~max_preemptions ~build prefix =
  let m = Machine.create () in
  build m;
  let steps = ref 0 in
  let budget = ref max_preemptions in
  let current = ref None in
  let remaining = ref prefix in
  let consumed = ref [] in
  let do_step tid =
    incr steps;
    current := Some tid;
    ignore (Machine.step m tid)
  in
  let rec drive () =
    if !steps >= max_depth then `Truncated
    else
      match Machine.runnable m with
      | [] ->
        if Machine.live m then
          `Terminal
            (Interleave.Deadlock
               (List.filter
                  (fun tid -> Machine.status m tid = Machine.Blocked)
                  (Machine.all_tids m)))
        else `Terminal Interleave.Completed
      | enabled -> (
        let cur_enabled =
          match !current with
          | Some t when List.mem t enabled -> Some t
          | _ -> None
        in
        let candidates =
          match cur_enabled with
          | Some t when !budget <= 0 -> [ t ]
          | Some t -> t :: List.filter (fun x -> x <> t) enabled
          | None -> enabled
        in
        match candidates with
        | [ only ] ->
          do_step only;
          drive ()
        | _ -> (
          match !remaining with
          | choice :: rest ->
            remaining := rest;
            consumed := choice :: !consumed;
            if not (List.mem choice candidates) then
              failwith "Explore: stale bounded replay prefix";
            (match cur_enabled with
            | Some t when choice <> t -> decr budget
            | _ -> ());
            do_step choice;
            drive ()
          | [] -> `Choice candidates))
  in
  let res = drive () in
  (m, List.rev !consumed, res, !steps)

let explore_bounded ?(max_preemptions = 2) ?(max_depth = 4000)
    ?(max_runs = 200_000) ~build check =
  let terminal = ref 0 and truncated = ref 0 and steps = ref 0 in
  let error = ref None in
  let stack = ref [ [] ] in
  let runs = ref 0 in
  while !error = None && !stack <> [] && !runs < max_runs do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
      stack := rest;
      incr runs;
      let m, choices, res, nsteps =
        run_prefix_bounded ~max_depth ~max_preemptions ~build prefix
      in
      steps := !steps + nsteps;
      (match res with
      | `Terminal verdict ->
        incr terminal;
        error := check { verdict; machine = m; schedule = choices }
      | `Truncated ->
        incr truncated;
        error :=
          check { verdict = Interleave.Step_limit; machine = m;
                  schedule = choices }
      | `Choice candidates ->
        let children = List.map (fun tid -> choices @ [ tid ]) candidates in
        stack := children @ !stack)
  done;
  ( !error,
    { terminal_runs = !terminal; truncated_runs = !truncated;
      total_steps = !steps } )
