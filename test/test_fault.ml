(* Fault injection and chaos conformance.

   Three claims are pinned here.  First, the injection machinery is free
   when disabled: a run with the wakeup filter installed but answering
   Deliver is cycle-, schedule- and trace-identical to a run without it,
   and so is a fault-engine run of a plan that injects nothing.  Second,
   the robustness contract: for every chaos-capable backend x workload x
   fault plan x seed, the run either completes conformant or terminates
   with a diagnosed fault report naming the injected fault — never a
   hang (a wedged run ends in a deadlock, a certified livelock or the
   engine's step budget), never a spec violation, never an unexplained
   failure.  A certified livelock never over-claims: stepping on finds
   every thread still spinning.  Third, chaos runs are deterministic:
   equal (backend, workload, plan, seed) render byte-identical fault
   reports.

   The alert-cancellation tests are the regression net for the paper's
   wakeup-waiting incidents: under injected delayed-wakeup windows, an
   Alert racing a V (or a Broadcast) must never lose the pending wakeup. *)

module M = Firefly.Machine
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck
module Plan = Threads_fault.Plan
module Engine = Threads_fault.Engine
module Sync_intf = Taos_threads.Sync_intf

let backend name =
  match Bk.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %S not registered" name

let workload name =
  match Wl.find name with
  | Some w -> w
  | None -> Alcotest.failf "workload %S not registered" name

let chaos_backends = [ "sim"; "uniproc" ]

(* ---- injection disabled: the hooks are free ---- *)

(* The sim backend's build, inlined (the registry does not export its
   builders): package created inside the root thread, exactly as
   Backend.machine_run does it.  [`Filtered] installs a wakeup filter
   that answers Deliver; [`Empty_plan] runs the build under the fault
   engine with a plan that injects nothing. *)
let sim_run driver ~seed (wl : Wl.t) =
  let observable = ref None in
  let sink = Spec_trace.Sink.create () in
  let build m =
    Firefly.Record.trace sink m;
    if driver = `Filtered then M.set_wake_filter m (Some (fun _ -> M.Deliver));
    ignore
      (M.spawn_root m (fun () ->
           let module S =
             (val Taos_threads.Api.make (Taos_threads.Pkg.create ()))
           in
           observable := Some (wl.Wl.body (module S))))
  in
  let steps, machine =
    match driver with
    | `Plain | `Filtered ->
      let r =
        Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
          ~max_steps:2_000_000 build
      in
      (r.Firefly.Interleave.steps, r.Firefly.Interleave.machine)
    | `Empty_plan ->
      let o = Engine.run ~seed ~plan:Plan.{ id = -1; actions = [] } build in
      (o.Engine.steps, o.Engine.machine)
  in
  (steps, M.total_cycles machine, Spec_trace.Sink.events sink, !observable)

let disabled_is_identical () =
  List.iter
    (fun wname ->
      let wl = workload wname in
      List.iter
        (fun seed ->
          let steps, cycles, trace, obs = sim_run `Plain ~seed wl in
          List.iter
            (fun (name, driver) ->
              let steps', cycles', trace', obs' = sim_run driver ~seed wl in
              let label what =
                Printf.sprintf "%s seed %d, %s: %s" wname seed name what
              in
              Alcotest.(check int) (label "steps") steps steps';
              Alcotest.(check int) (label "cycles") cycles cycles';
              Alcotest.(check bool)
                (label "trace identical")
                true (trace = trace');
              Alcotest.(check (option string)) (label "observable") obs obs')
            [ ("deliver filter", `Filtered); ("empty plan", `Empty_plan) ])
        [ 0; 3; 7; 11 ])
    [ "mutex"; "condvar"; "alert"; "timeout" ]

(* ---- plan generation is reproducible ---- *)

let plans_deterministic () =
  for plan_id = 0 to 13 do
    let a = Plan.generate ~plan_id () in
    let b = Plan.generate ~plan_id () in
    Alcotest.(check string)
      (Printf.sprintf "plan %d reproducible" plan_id)
      (Plan.describe a) (Plan.describe b);
    Alcotest.(check bool)
      (Printf.sprintf "plan %d structurally equal" plan_id)
      true (a = b)
  done

(* ---- the robustness contract over the full matrix ---- *)

(* Plan-major, as [Crosscheck.chaos_stream] numbers its cells. *)
let chaos_runs bname wname ~plans ~seeds =
  List.init (plans * seeds) (fun i ->
      Cc.chaos_one (backend bname) (workload wname) ~seed:(i mod seeds)
        (Plan.generate ~plan_id:(i / seeds) ()))

(* 7 plans (every family) x 3 seeds per backend/workload pair: every run
   must land in one of the two acceptable classes.  A Violation or
   Unexplained anywhere — or a hang, which the engine ends in a
   Livelock or Step_limit verdict — fails the suite. *)
let chaos_matrix bname wname () =
  Alcotest.(check bool) "supported" true
    (Bk.supports (backend bname) (workload wname));
  List.iter
    (fun (r : Cc.chaos_run) ->
      match r.Cc.c_class with
      | Cc.Conformant | Cc.Diagnosed -> ()
      | Cc.Violation | Cc.Unexplained ->
        Alcotest.failf "%s/%s plan#%d seed=%d: %s\n%s" bname wname
          r.Cc.c_plan.Plan.id r.Cc.c_seed
          (Cc.class_name r.Cc.c_class)
          (Plan.describe r.Cc.c_plan))
    (chaos_runs bname wname ~plans:7 ~seeds:3)

(* ---- chaos runs render byte-identical reports ---- *)

let chaos_deterministic () =
  List.iter
    (fun bname ->
      let render () =
        let buf = Buffer.create 4096 in
        ignore
          (Cc.chaos_stream ~emit:(Buffer.add_string buf) (backend bname)
             (workload "condvar") ~plans:3 ~seeds:2);
        Buffer.contents buf
      in
      Alcotest.(check string)
        (bname ^ " report byte-identical across runs")
        (render ()) (render ()))
    chaos_backends

(* ---- diagnosed-failure pins ---- *)

(* A dropped wakeup wedges the condvar workload: the watchdog must turn
   the hang into a Deadlock verdict, and the fault log must name the
   drop so the report attributes blame. *)
let dropped_wakeup_diagnosed () =
  let r =
    Cc.chaos_one (backend "sim") (workload "condvar") ~seed:0
      (Plan.generate ~plan_id:1 ())
  in
  Alcotest.(check string) "class" "diagnosed" (Cc.class_name r.Cc.c_class);
  (match r.Cc.c_outcome.Engine.verdict with
  | Firefly.Interleave.Deadlock (_ :: _) -> ()
  | v ->
    Alcotest.failf "expected deadlock, got %a"
      (Engine.pp_verdict r.Cc.c_outcome.Engine.machine)
      v);
  let dropped (f : M.fault) =
    String.length f.M.f_desc >= 7
    && List.exists
         (fun sub ->
           let n = String.length sub in
           let rec at i =
             i + n <= String.length f.M.f_desc
             && (String.sub f.M.f_desc i n = sub || at (i + 1))
           in
           at 0)
         [ "dropped" ]
  in
  Alcotest.(check bool) "fault log names the drop" true
    (List.exists dropped r.Cc.c_outcome.Engine.injected)

(* Crash-stop mid-critical-section: the victim dies holding the package
   mutex, everyone else deadlocks behind it.  The thread failure must be
   Crash_stopped (not an unwound exception) and the run Diagnosed. *)
let crash_stop_diagnosed () =
  let r =
    Cc.chaos_one (backend "sim") (workload "mutex") ~seed:0
      (Plan.generate ~plan_id:5 ())
  in
  Alcotest.(check string) "class" "diagnosed" (Cc.class_name r.Cc.c_class);
  let failures = M.failures r.Cc.c_outcome.Engine.machine in
  Alcotest.(check bool) "some thread crash-stopped" true (failures <> []);
  List.iter
    (fun (tid, e) ->
      if e <> M.Crash_stopped then
        Alcotest.failf "t%d failed with %s, not Crash_stopped" tid
          (Printexc.to_string e))
    failures

(* A crash-stop of the Nub spin-lock's holder leaves every other thread
   retrying a TAS that can never succeed: the engine must certify that
   wedge as a livelock within a few hundred steps instead of spinning out
   its step budget.  Seed 7's victim dies between dropping the recorded
   owner and clearing the word, so its witness has no holder; seed 17's
   dies holding the lock. *)
let crash_stop_certified () =
  List.iter
    (fun (seed, holder) ->
      let r =
        Cc.chaos_one (backend "sim") (workload "mutex") ~seed
          (Plan.generate ~plan_id:5 ())
      in
      let o = r.Cc.c_outcome in
      let m = o.Engine.machine in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check string) (label "class") "diagnosed"
        (Cc.class_name r.Cc.c_class);
      (match o.Engine.verdict with
      | Firefly.Interleave.Livelock l ->
        Alcotest.(check string) (label "word") "nub-lock"
          (M.word_name m l.word);
        Alcotest.(check (option int)) (label "holder") holder l.holder
      | v ->
        Alcotest.failf "seed %d: expected livelock, got %a" seed
          (Engine.pp_verdict m) v);
      if o.Engine.steps >= 1_000 then
        Alcotest.failf "seed %d: certified only after %d steps" seed
          o.Engine.steps;
      (* No over-claim: 10 000 more steps over the runnable threads change
         neither the runnable set, nor a spin word, nor the spec trace. *)
      let spins () =
        List.map
          (fun tid ->
            let w = M.spin_word m tid in
            (tid, w, Option.map (M.word_value m) w))
          (M.runnable m)
      in
      let before = spins () in
      let sink = Spec_trace.Sink.create () in
      Firefly.Record.trace sink m;
      let runnable = Array.of_list (M.runnable m) in
      for i = 0 to 9_999 do
        ignore (M.step m runnable.(i mod Array.length runnable))
      done;
      Alcotest.(check (list int)) (label "runnable set")
        (Array.to_list runnable) (M.runnable m);
      Alcotest.(check bool) (label "spin words unchanged") true
        (before = spins ());
      Alcotest.(check int) (label "no spec event") 0
        (List.length (Spec_trace.Sink.events sink)))
    [ (7, None); (17, Some 3) ]

(* The cost of the costliest chaos cell, as an exact count: certified
   livelocks end plan#5's wedged runs after hundreds of steps, not the
   300 000 of the step budget.  Plan#3's alert storms really alert the
   sim backend's threads, which costs their runs extra steps. *)
let chaos_cell_steps () =
  Alcotest.(check int) "total steps" 192_922
    (List.fold_left
       (fun n r -> n + r.Cc.c_outcome.Engine.steps)
       0
       (chaos_runs "sim" "mutex" ~plans:7 ~seeds:20))

(* Every chaos-capable backend registers the package's "pkg.alert" hook,
   so an alert storm reaches live threads instead of being skipped. *)
let alert_storm_delivered () =
  let plan = Plan.{ id = 0; actions = [ Alert_storm { after = 20; count = 2 } ] } in
  List.iter
    (fun (b : Bk.t) ->
      if b.Bk.chaos <> None then begin
        let r = Cc.chaos_one b (workload "condvar") ~seed:0 plan in
        let descs =
          List.map (fun (f : M.fault) -> f.M.f_desc) r.Cc.c_outcome.Engine.injected
        in
        let has prefix = List.exists (String.starts_with ~prefix) descs in
        let label what = Printf.sprintf "%s: %s" b.Bk.name what in
        Alcotest.(check bool) (label "alert storm on live threads") true
          (has "alert storm on ");
        Alcotest.(check bool) (label "never skipped for want of a hook") false
          (has "alert storm skipped: no pkg.alert hook")
      end)
    Bk.all

(* ---- timed waits conform (TimedWait / TimedP spec clauses) ---- *)

let timeout_conforms bname () =
  let s = Cc.conform (backend bname) (workload "timeout") ~seeds:5 in
  (match Cc.first_error s with
  | Some e -> Alcotest.failf "%s/timeout: %s" bname e
  | None -> ());
  Alcotest.(check bool) "completed, agreed, 0 violations" true (Cc.ok s)

(* ---- alert cancellation never loses a pending wakeup (S3) ---- *)

(* Two races the paper's incident reports motivate, run under injected
   delayed-wakeup windows:

   - Alert vs V on a drained semaphore: whichever way AlertP resolves,
     the V must survive — if the victim was alerted out, the final P
     must find the token; if the victim consumed it, we replenish first.
     A lost V deadlocks the main thread, which the engine would report
     as Diagnosed — the test demands Conformant, so a loss fails.
   - An alerted waiter next to a Mesa waiter under one Broadcast: both
     must exit, the alertee via Alerted, the waiter via the predicate. *)
let alert_cancel_wl : Wl.t =
  {
    Wl.name = "alert-cancel";
    description = "alert racing V and Broadcast keeps pending wakeups";
    needs = [ Wl.Alerts ];
    body =
      (fun (module S : Sync_intf.SYNC) ->
        let s = S.semaphore () in
        S.p s;
        let got = ref false in
        let victim =
          S.fork (fun () ->
              match S.alert_p s with
              | () -> got := true
              | exception Sync_intf.Alerted -> ())
        in
        S.alert victim;
        S.v s;
        S.join victim;
        if !got then S.v s;
        S.p s;
        let m = S.mutex () in
        let c = S.condition () in
        let flag = ref false in
        let alerted = ref false in
        let aw =
          S.fork (fun () ->
              try S.with_lock m (fun () -> S.alert_wait m c)
              with Sync_intf.Alerted -> alerted := true)
        in
        let w =
          S.fork (fun () ->
              S.with_lock m (fun () ->
                  while not !flag do
                    S.wait m c
                  done))
        in
        S.alert aw;
        S.with_lock m (fun () -> flag := true);
        S.broadcast c;
        S.join aw;
        S.join w;
        Printf.sprintf "p=%s alerted=%b" (if !got then "got" else "alerted")
          !alerted);
  }

(* Plan ids 0 and 7 are both the delayed-wakeups family with different
   jitter; 10 seeds each, on both chaos-capable backends.  Every run
   must complete conformant: a lost Signal/V surfaces as Diagnosed
   (deadlock) and fails. *)
let alert_under_delayed_wakeups bname () =
  let b = backend bname in
  List.iter
    (fun plan_id ->
      let plan = Plan.generate ~plan_id () in
      for seed = 0 to 9 do
        let r = Cc.chaos_one b alert_cancel_wl ~seed plan in
        if r.Cc.c_class <> Cc.Conformant then
          Alcotest.failf "%s plan#%d seed=%d: %s (verdict %a)" bname plan_id
            seed
            (Cc.class_name r.Cc.c_class)
            (Engine.pp_verdict r.Cc.c_outcome.Engine.machine)
            r.Cc.c_outcome.Engine.verdict;
        Alcotest.(check int)
          (Printf.sprintf "%s plan#%d seed=%d: no violations" bname plan_id
             seed)
          0
          (List.length r.Cc.c_report.Threads_model.Conformance.errors)
      done)
    [ 0; 7 ]

let matrix_cases =
  List.concat_map
    (fun b ->
      List.map
        (fun w ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s: 7 plans x 3 seeds all explained" b w)
            `Quick (chaos_matrix b w))
        [ "mutex"; "condvar"; "semaphore"; "timeout" ])
    chaos_backends

let suite =
  ( "fault",
    [
      Alcotest.test_case "disabled injection is schedule-identical" `Quick
        disabled_is_identical;
      Alcotest.test_case "plan generation reproducible" `Quick
        plans_deterministic;
      Alcotest.test_case "chaos reports deterministic" `Quick
        chaos_deterministic;
      Alcotest.test_case "dropped wakeup -> diagnosed deadlock" `Quick
        dropped_wakeup_diagnosed;
      Alcotest.test_case "crash-stop -> diagnosed, no unwinding" `Quick
        crash_stop_diagnosed;
      Alcotest.test_case "sim timeout workload conforms" `Quick
        (timeout_conforms "sim");
      Alcotest.test_case "uniproc timeout workload conforms" `Quick
        (timeout_conforms "uniproc");
      Alcotest.test_case "sim alert cancellation keeps wakeups" `Quick
        (alert_under_delayed_wakeups "sim");
      Alcotest.test_case "uniproc alert cancellation keeps wakeups" `Quick
        (alert_under_delayed_wakeups "uniproc");
    ]
    @ matrix_cases
    @ [
        Alcotest.test_case "crash-stopped spin-lock holder -> certified"
          `Quick crash_stop_certified;
        Alcotest.test_case "sim/mutex chaos cell step count" `Quick
          chaos_cell_steps;
        Alcotest.test_case "alert storm reaches every chaos backend" `Quick
          alert_storm_delivered;
      ] )
