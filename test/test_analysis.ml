(* Validation of the dynamic analyzers (lockset, happens-before,
   lock-order).

   The seeded mutants pin down the division of labour: the broken
   spinlock is invisible to lockset (its critical sections consistently
   "hold" the lock) but caught by happens-before (no interlocked TAS, no
   acquire edge); the naive-broadcast baseline is a lockset catch (waiter
   count touched outside the mutex); lock inversion is a lock-order cycle
   whatever the schedule.  Conforming backends must be silent across many
   seeds, and recording must not perturb execution at all. *)

module An = Threads_analysis.Analysis
module Mu = Threads_analysis.Mutants
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module M = Firefly.Machine

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let seeds n = List.init n (fun i -> 100 + (7 * i))

(* --- mutants --- *)

(* Analyze a mutant run with a fresh access log subscribed. *)
let analyze run =
  let log = An.log () in
  An.of_run log (run (An.record log))

let check_scenario (s : Mu.scenario) seed =
  let r = analyze (s.Mu.m_run ~seed) in
  let ctx what =
    Printf.sprintf "%s (seed %d): %s" s.Mu.m_name seed what
  in
  match s.Mu.m_expect with
  | Mu.Hb ->
    Alcotest.(check bool) (ctx "hb race found") true (r.An.hb <> []);
    Alcotest.(check (list string))
      (ctx "lockset stays fooled — complementarity")
      []
      (List.map
         (Format.asprintf "%a" Threads_analysis.Lockset.pp_race)
         r.An.lockset)
  | Mu.Lockset ->
    Alcotest.(check bool) (ctx "lockset race found") true (r.An.lockset <> [])
  | Mu.Lock_order ->
    Alcotest.(check bool) (ctx "lock-order cycle found") true
      (An.cycles r <> [])
  | Mu.Clean ->
    Alcotest.(check (list string)) (ctx "no findings") [] (An.findings r)

let test_mutants () =
  List.iter
    (fun s -> List.iter (check_scenario s) (seeds 5))
    Mu.all

let test_mutant_reports_actionable () =
  (* The messages must name the word, the threads and the access kinds —
     enough to act on without re-running. *)
  let r = analyze (Mu.broken_spinlock ~seed:3) in
  (match r.An.hb with
  | race :: _ ->
    let msg = Format.asprintf "%a" Threads_analysis.Hb.pp_race race in
    Alcotest.(check bool) "names the racy word" true
      (race.Threads_analysis.Hb.h_name = "mutant-counter");
    List.iter
      (fun part ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %S" part)
          true
          (contains msg part))
      [ "mutant-counter"; "unordered" ]
  | [] -> Alcotest.fail "broken spinlock not flagged");
  let r = analyze (Mu.lock_inversion ~seed:3) in
  match An.cycles r with
  | cycle :: _ ->
    Alcotest.(check int) "binary deadlock cycle" 2 (List.length cycle);
    let msg =
      Format.asprintf "%a"
        (Threads_analysis.Lockorder.pp_cycle ~lock_name:r.An.lock_name)
        cycle
    in
    Alcotest.(check bool) "cycle names mutexes" true
      (contains msg "mutex#")
  | [] -> Alcotest.fail "lock inversion not flagged"

(* --- clean backends stay silent --- *)

let instrumented name =
  let b = Option.get (Bk.find name) in
  match b.Bk.instrument with
  | Bk.Machine_access f -> (b, f)
  | _ -> Alcotest.fail (name ^ ": expected a machine-access instrument")

let test_clean_backends () =
  List.iter
    (fun bname ->
      let b, f = instrumented bname in
      List.iter
        (fun (wl : Wl.t) ->
          if Bk.supports b wl then
            List.iter
              (fun seed ->
                let log = An.log () in
                let _, machine = f ~observe:(An.record log) ~seed wl in
                let r = An.of_run log machine in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s/%s seed %d silent" bname wl.Wl.name seed)
                  [] (An.findings r))
              (seeds 20))
        Wl.all)
    [ "sim"; "uniproc" ]

(* Multicore runs on real domains with no machine: its lock order is read
   from the spec trace its [run] returns. *)
let multicore = Option.get (Bk.find "multicore")

let test_multicore_lock_order () =
  List.iter
    (fun wname ->
      let wl = Option.get (Wl.find wname) in
      let r = (An.run_backend multicore ~seed:1 wl).An.br_report in
      Alcotest.(check bool)
        (Printf.sprintf "multicore/%s saw lock events" wname)
        true (r.An.n_accesses > 0);
      Alcotest.(check bool)
        (Printf.sprintf "multicore/%s lock order acyclic" wname)
        true (An.clean r))
    [ "mutex"; "condvar"; "broadcast" ]

(* Two domains, joined one after the other so they never deadlock, take
   two mutexes in opposite orders: the trace still shows the cycle. *)
let test_multicore_inversion () =
  let inversion =
    {
      Wl.name = "inversion";
      description = "opposite lock orders, one domain at a time";
      needs = [];
      body =
        (fun (module S : Taos_threads.Sync_intf.SYNC) ->
          let a = S.mutex () and b = S.mutex () in
          let nested outer inner () =
            S.with_lock outer (fun () -> S.with_lock inner ignore)
          in
          S.join (S.fork (nested a b));
          S.join (S.fork (nested b a));
          "done");
    }
  in
  let res = An.run_backend multicore ~seed:1 inversion in
  Alcotest.(check (option string)) "completed" (Some "done")
    res.An.br_outcome.Bk.observable;
  Alcotest.(check int) "eight lock events" 8 res.An.br_report.An.n_accesses;
  match An.cycles res.An.br_report with
  | [ cycle ] -> Alcotest.(check int) "binary cycle" 2 (List.length cycle)
  | cycles ->
    Alcotest.failf "expected one lock-order cycle, found %d"
      (List.length cycles)

(* --- recording identity --- *)

(* What one run under the seeded random schedule shows with the stream
   consumers of [kinds] subscribed to its machine: what must not depend
   on who observes (cycles, schedule, instructions), and what
   each subscribed consumer folded. *)
type observed = {
  o_cycles : int;
  o_schedule : Threads_util.Tid.t list;
  o_instructions : int;
  o_trace : string list option;
  o_accesses : M.access list option;
  o_profile : string option;
  o_footprints : (int * bool) list option;
  o_stats : Obs.Instrument.snapshot option;
}

let sync_of = function
  | "sim" ->
    fun () ->
      (module (val Taos_threads.Api.make (Taos_threads.Pkg.create ()))
      : Taos_threads.Sync_intf.SYNC)
  | "uniproc" ->
    fun () ->
      (module (val Taos_threads.Uniproc.make ()) : Taos_threads.Sync_intf.SYNC)
  | b -> Alcotest.failf "no package build for backend %s" b

let observed_run ~seed bname (wl : Wl.t) kinds =
  let module P = Obs.Profile in
  let sink = Spec_trace.Sink.create () and log = An.log () in
  let prof = P.recorder () and footprints = ref [] in
  let reg = Obs.Instrument.create () in
  let m = M.create () in
  List.iter
    (function
      | M.K_spec -> Firefly.Record.trace sink m
      | M.K_access -> An.record log m
      | M.K_prof -> P.record prof m
      | M.K_touch ->
        M.subscribe m M.K_touch (function
          | M.Ev_touch touched -> footprints := touched :: !footprints
          | _ -> ())
      | M.K_stat -> Obs.Instrument.record reg m)
    kinds;
  let sync = sync_of bname in
  ignore (M.spawn_root m (fun () -> ignore (wl.Wl.body (sync ()))));
  let strategy = Firefly.Sched.random seed in
  let rec drive acc =
    if M.runnable_count m = 0 then List.rev acc
    else
      let tid = Firefly.Sched.choose strategy m in
      ignore (M.step m tid);
      drive (tid :: acc)
  in
  let schedule = drive [] in
  let folded k f = if List.mem k kinds then Some (f ()) else None in
  {
    o_cycles = M.total_cycles m;
    o_schedule = schedule;
    o_instructions = M.total_instructions m;
    o_trace =
      folded M.K_spec (fun () ->
          List.map Spec_trace.event_to_string (Spec_trace.Sink.events sink));
    o_accesses = folded M.K_access (fun () -> An.accesses log);
    o_profile = folded M.K_prof (fun () -> P.render (P.of_run prof m));
    o_footprints = folded M.K_touch (fun () -> List.rev !footprints);
    o_stats = folded M.K_stat (fun () -> Obs.Instrument.snapshot reg);
  }

(* All five consumers on one machine against each consumer alone and
   against no subscriber at all: the run is identical, and so is what
   each consumer folds. *)
let check_consumers_agree ~seed bname (wl : Wl.t) =
  let ctx what =
    Printf.sprintf "%s/%s seed %d: %s" bname wl.Wl.name seed what
  in
  let run = observed_run ~seed bname wl in
  let none = run [] in
  let kinds = [ M.K_spec; M.K_access; M.K_touch; M.K_prof; M.K_stat ] in
  let all = run kinds in
  let alone = List.map (fun k -> run [ k ]) kinds in
  List.iteri
    (fun i o ->
      let ctx what = ctx (Printf.sprintf "run %d: %s" i what) in
      Alcotest.(check int) (ctx "cycles") none.o_cycles o.o_cycles;
      Alcotest.(check (list int)) (ctx "schedule") none.o_schedule o.o_schedule;
      Alcotest.(check int)
        (ctx "instructions") none.o_instructions o.o_instructions)
    (all :: alone);
  let pick f = List.find_map f alone in
  let nonempty = function Some (_ :: _) -> true | _ -> false in
  let counted = function
    | Some (s : Obs.Instrument.snapshot) -> s.counters <> []
    | None -> false
  in
  Alcotest.(check bool) (ctx "consumers saw events") true
    (nonempty all.o_trace && nonempty all.o_accesses
    && nonempty all.o_footprints && all.o_profile <> None
    && counted all.o_stats);
  Alcotest.(check (option (list string)))
    (ctx "same trace") (pick (fun o -> o.o_trace)) all.o_trace;
  Alcotest.(check bool)
    (ctx "same accesses") true
    (pick (fun o -> o.o_accesses) = all.o_accesses);
  Alcotest.(check (option string))
    (ctx "same profile") (pick (fun o -> o.o_profile)) all.o_profile;
  Alcotest.(check bool)
    (ctx "same footprints") true
    (pick (fun o -> o.o_footprints) = all.o_footprints);
  Alcotest.(check bool)
    (ctx "same statistics") true
    (pick (fun o -> o.o_stats) = all.o_stats)

let test_recording_identity () =
  (* Instrumented and plain runs of the same (backend, workload, seed)
     must agree on step count, observable and the full linearized trace:
     stream subscribers are host-side, never an instruction. *)
  List.iter
    (fun bname ->
      let b, f = instrumented bname in
      List.iter
        (fun (wl : Wl.t) ->
          List.iter
            (fun seed ->
              let plain = b.Bk.run ~seed wl in
              let log = An.log () in
              let rec_outcome, _ = f ~observe:(An.record log) ~seed wl in
              let ctx what =
                Printf.sprintf "%s/%s seed %d: %s" bname wl.Wl.name seed what
              in
              Alcotest.(check bool) (ctx "accesses were recorded") true
                (An.accesses log <> []);
              Alcotest.(check (option int))
                (ctx "same step count") plain.Bk.steps rec_outcome.Bk.steps;
              Alcotest.(check (option string))
                (ctx "same observable") plain.Bk.observable
                rec_outcome.Bk.observable;
              Alcotest.(check (list string))
                (ctx "same trace")
                (List.map Spec_trace.event_to_string plain.Bk.trace)
                (List.map Spec_trace.event_to_string rec_outcome.Bk.trace))
            (seeds 5))
        [ Option.get (Wl.find "mutex"); Option.get (Wl.find "condvar") ])
    [ "sim"; "uniproc" ];
  List.iter
    (fun bname ->
      List.iter
        (fun seed ->
          check_consumers_agree ~seed bname (Option.get (Wl.find "mutex")))
        (seeds 3))
    [ "sim"; "uniproc" ]

(* --- held-lock bookkeeping --- *)

let test_held_locks_balanced () =
  (* Every lock acquisition in the stream must be matched: at the end of a
     completed run no access should have been recorded, on any backend,
     with a held set that was never released (the last accesses of each
     thread run outside all critical sections in these workloads). *)
  let log = An.log () in
  ignore
    ((snd (instrumented "sim")) ~observe:(An.record log) ~seed:11
       (Option.get (Wl.find "mutex")));
  let per_thread = Hashtbl.create 8 in
  List.iter
    (fun (a : M.access) -> Hashtbl.replace per_thread a.a_tid a.a_locks)
    (An.accesses log);
  Hashtbl.iter
    (fun tid locks ->
      Alcotest.(check (list int))
        (Printf.sprintf "t%d ends with empty held set" tid)
        [] locks)
    per_thread

let suite =
  ( "analysis",
    [
      Alcotest.test_case "mutants caught across seeds" `Slow test_mutants;
      Alcotest.test_case "mutant reports are actionable" `Quick
        test_mutant_reports_actionable;
      Alcotest.test_case "clean backends silent across 20 seeds" `Slow
        test_clean_backends;
      Alcotest.test_case "multicore lock order acyclic" `Slow
        test_multicore_lock_order;
      Alcotest.test_case "recording leaves runs identical" `Slow
        test_recording_identity;
      Alcotest.test_case "held-lock sets balance" `Quick
        test_held_locks_balanced;
      Alcotest.test_case "multicore lock inversion is a cycle" `Quick
        test_multicore_inversion;
    ] )
