module Conformance = Threads_model.Conformance

type run = {
  seed : int;
  verdict : Backend.verdict;
  observable : string option;
  report : Conformance.report;
}

type summary = {
  backend : Backend.t;
  workload : Workload.t;
  skipped : bool;
  runs : run list;
}

let iface = Spec_core.Threads_interface.final

module Matrix = Threads_runner.Matrix

(* Single-cell entry point for callers that bring their own matrix — the
   generative engine runs one (program, seed) cell per generated
   scenario and shrinks on the result. *)
let run_one (backend : Backend.t) (workload : Workload.t) ~seed =
  let { Backend.verdict; observable; trace; _ } = backend.run ~seed workload in
  let report = Conformance.check iface trace in
  ({ seed; verdict; observable; report }, trace)

(* A matrix cell keeps its trace only until it is checked: a summary
   holds every run, and their traces would be most of its memory. *)
let conform_cell backend workload seed = fst (run_one backend workload ~seed)

(* Matrix cells are independent: each run builds its own machine, the
   ambient probe slot is domain-local, and the scheduler RNG is seeded
   per cell — so [Matrix.map] may execute them on any domain in any
   order.  Results come back in index order, keeping reports
   byte-identical whatever [jobs] is. *)
let conform ?telemetry ?(jobs = 1) (backend : Backend.t) (workload : Workload.t)
    ~seeds =
  if not (Backend.supports backend workload) then
    { backend; workload; skipped = true; runs = [] }
  else
    let runs =
      Array.to_list
        (Matrix.map ?telemetry ~jobs ~n:seeds (fun seed ->
             conform_cell backend workload seed))
    in
    { backend; workload; skipped = false; runs }

let violations s =
  List.fold_left
    (fun acc r -> acc + List.length r.report.Conformance.errors)
    0 s.runs

let events s =
  List.fold_left (fun acc r -> acc + r.report.Conformance.events) 0 s.runs

let completed s =
  List.for_all (fun r -> r.verdict = Backend.Completed) s.runs

(* Count one more [key].  A new key goes to the back and a key counted
   again moves to the front: completed, deadlock, deadlock tallies as
   [deadlock 2; completed 1].  Reports print tallies in this order. *)
let tally acc key =
  match List.assoc_opt key acc with
  | Some n -> (key, n + 1) :: List.remove_assoc key acc
  | None -> acc @ [ (key, 1) ]

let verdicts s =
  List.fold_left
    (fun acc r -> tally acc (Format.asprintf "%a" Backend.pp_verdict r.verdict))
    [] s.runs

let observables s =
  List.sort_uniq compare
    (List.filter_map (fun r -> r.observable) s.runs)

(* A summary passes when every seed completed with the same observable and
   the whole trace set replayed without a spec violation. *)
let ok s =
  (not s.skipped)
  && completed s
  && violations s = 0
  && List.length (observables s) <= 1

let first_error s =
  List.find_map
    (fun r ->
      match r.report.Conformance.errors with
      | e :: _ ->
        Some
          (Format.asprintf "seed %d, event [%d] %a: %s" r.seed
             e.Conformance.index Spec_trace.pp_event e.Conformance.event
             e.Conformance.message)
      | [] -> None)
    s.runs

(* Run every registered backend able to take the workload.  The whole
   backend x seed matrix is flattened into one cell array so the
   executor's workers share cells of backends of very different costs,
   then regrouped into per-backend summaries in registration order. *)
let diff ?telemetry ?(jobs = 1) (workload : Workload.t) ~seeds =
  let supported =
    List.map (fun b -> (b, Backend.supports b workload)) Backend.all
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (b, ok) ->
           if ok then List.init seeds (fun seed -> (b, seed)) else [])
         supported)
  in
  let results =
    Matrix.map ?telemetry ~jobs ~n:(Array.length cells) (fun i ->
        let b, seed = cells.(i) in
        conform_cell b workload seed)
  in
  let next = ref 0 in
  List.map
    (fun (b, ok) ->
      if not ok then { backend = b; workload; skipped = true; runs = [] }
      else begin
        let runs = Array.to_list (Array.sub results !next seeds) in
        next := !next + seeds;
        { backend = b; workload; skipped = false; runs }
      end)
    supported

(* ------------------------------------------------------------------ *)
(* Chaos conformance: backend x workload x fault plan.                 *)

module Engine = Threads_fault.Engine
module Plan = Threads_fault.Plan
module M = Firefly.Machine

type chaos_class =
  | Conformant
  | Diagnosed
  | Violation
  | Unexplained

let class_name = function
  | Conformant -> "conformant"
  | Diagnosed -> "diagnosed"
  | Violation -> "VIOLATION"
  | Unexplained -> "UNEXPLAINED"

type chaos_run = {
  c_seed : int;
  c_plan : Plan.t;
  c_observable : string option;
  c_outcome : Engine.outcome;
  c_report : Conformance.report;
  c_class : chaos_class;
}

(* The robustness contract: under any injected fault plan a run must
   either conform (complete, zero violations, no unexplained thread
   failures) or be diagnosed — terminate with zero violations and a
   non-empty fault log that names the injected fault blamed for the
   deadlock, livelock, budget exhaustion or crash-stopped thread.
   Anything else (a spec violation, or a failure with an empty fault log)
   is a harness red flag. *)
let classify (outcome : Engine.outcome) (report : Conformance.report) =
  let failures = M.failures outcome.Engine.machine in
  let crash_only =
    List.for_all (fun (_, e) -> e = M.Crash_stopped) failures
  in
  let injected = outcome.Engine.injected <> [] in
  if report.Conformance.errors <> [] then Violation
  else
    match outcome.Engine.verdict with
    | Completed when failures = [] -> Conformant
    | Completed when crash_only && injected -> Diagnosed
    | (Deadlock _ | Step_limit | Livelock _) when crash_only && injected ->
      Diagnosed
    | _ -> Unexplained

let chaos_one (backend : Backend.t) (workload : Workload.t) ~seed
    (plan : Plan.t) =
  match backend.Backend.chaos with
  | None -> invalid_arg ("backend has no chaos driver: " ^ backend.Backend.name)
  | Some driver ->
    let sink = Spec_trace.Sink.create () in
    let observable, outcome =
      driver ~observe:(Firefly.Record.trace sink) ~seed ~plan workload
    in
    let report = Conformance.check iface (Spec_trace.Sink.events sink) in
    {
      c_seed = seed;
      c_plan = plan;
      c_observable = observable;
      c_outcome = outcome;
      c_report = report;
      c_class = classify outcome report;
    }

(* Plan-major cell numbering: cell [i] is plan [i / seeds], seed
   [i mod seeds] — the same order the sequential nest produced. *)
let chaos_cell backend workload ~seeds i =
  let plan = Plan.generate ~plan_id:(i / seeds) () in
  chaos_one backend workload ~seed:(i mod seeds) plan

(* Deterministic rendering of one chaos run — the structured fault
   report.  Equal (backend, workload, plan, seed) must render equal
   reports; the chaos CI smoke job diffs two such renderings. *)
let render_run b ppf r =
  let o = r.c_outcome in
  Format.fprintf ppf "=== %s plan#%d seed=%d: %s@\n" b r.c_plan.Plan.id
    r.c_seed (class_name r.c_class);
  Format.fprintf ppf "  plan: %s@\n" (Plan.describe r.c_plan);
  Format.fprintf ppf "  verdict: %a after %d steps@\n"
    (Engine.pp_verdict o.Engine.machine)
    o.Engine.verdict o.Engine.steps;
  (match r.c_observable with
  | Some obs -> Format.fprintf ppf "  observable: %s@\n" obs
  | None -> Format.fprintf ppf "  observable: (none)@\n");
  Format.fprintf ppf "  conformance: %d events, %d violations@\n"
    r.c_report.Conformance.events
    (List.length r.c_report.Conformance.errors);
  List.iter
    (fun (e : Conformance.error) ->
      Format.fprintf ppf "  violation at [%d] %a: %s@\n" e.Conformance.index
        Spec_trace.pp_event e.Conformance.event e.Conformance.message)
    r.c_report.Conformance.errors;
  (match M.failures o.Engine.machine with
  | [] -> ()
  | fs ->
    Format.fprintf ppf "  failed threads: %s@\n"
      (String.concat ", "
         (List.map
            (fun (tid, e) ->
              Printf.sprintf "t%d (%s)" tid (Printexc.to_string e))
            fs)));
  match o.Engine.injected with
  | [] -> Format.fprintf ppf "  injected: (none)@\n"
  | faults ->
    Format.fprintf ppf "  injected (%d):@\n" (List.length faults);
    List.iter
      (fun (f : M.fault) ->
        Format.fprintf ppf "    [%d] cycle %d: %s@\n" f.M.f_seq f.M.f_cycle
          f.M.f_desc)
      faults

(* ------------------------------------------------------------------ *)
(* Streaming chaos: million-run matrices at flat memory.               *)

type chaos_totals = {
  ct_backend : Backend.t;
  ct_workload : Workload.t;
  ct_skipped : bool;
  ct_runs : int;
  ct_classes : (string * int) list;  (* class name -> count, as [tally] orders *)
  ct_failures : (int * int * chaos_class) list;
      (* (plan, seed, class) of every Violation / Unexplained run *)
}

let chaos_totals_ok t = (not t.ct_skipped) && t.ct_failures = []

(* Each run is classified, rendered through [emit] and dropped as soon
   as its turn comes: the resident set holds only the bounded in-flight
   window of the executor plus the class counters, independent of the
   matrix size.  [emit] is called on the calling domain, in
   deterministic cell order, for any [jobs]. *)
let chaos_stream ?telemetry ?(jobs = 1) ~emit (backend : Backend.t)
    (workload : Workload.t) ~plans ~seeds =
  if backend.Backend.chaos = None || not (Backend.supports backend workload)
  then begin
    emit
      (Format.asprintf "%s x %s: skipped (no chaos driver or feature)@\n"
         backend.Backend.name workload.Workload.name);
    { ct_backend = backend; ct_workload = workload; ct_skipped = true;
      ct_runs = 0; ct_classes = []; ct_failures = [] }
  end
  else begin
    let n = plans * seeds in
    emit
      (Format.asprintf "--- chaos: %s x %s (%d runs) ---@\n"
         backend.Backend.name workload.Workload.name n);
    let classes = ref [] in
    let failures = ref [] in
    Matrix.iter_ordered ?telemetry ~jobs ~n
      ~f:(fun i -> chaos_cell backend workload ~seeds i)
      ~consume:(fun i r ->
        emit (Format.asprintf "%a" (render_run backend.Backend.name) r);
        classes := tally !classes (class_name r.c_class);
        match r.c_class with
        | Violation | Unexplained ->
          failures := (i / seeds, i mod seeds, r.c_class) :: !failures
        | Conformant | Diagnosed -> ())
      ();
    emit
      (Format.asprintf "summary: %s@\n"
         (String.concat ", "
            (List.map
               (fun (k, c) -> Printf.sprintf "%d %s" c k)
               !classes)));
    { ct_backend = backend; ct_workload = workload; ct_skipped = false;
      ct_runs = n; ct_classes = !classes;
      ct_failures = List.rev !failures }
  end
