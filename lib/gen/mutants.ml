module Bk = Threads_backend.Backend
module Cc = Threads_backend.Crosscheck
module Workload = Threads_backend.Workload
module Rng = Threads_util.Rng
module P = Threads_model.Program
module Checker = Threads_model.Checker
module Conformance = Threads_model.Conformance
module Spec_mutants = Threads_staticcheck.Spec_mutants
module Sort = Spec_core.Sort

type row = {
  r_mutant : string;
  r_expected : string;
  r_killed : string option;
}

(* ---- abstraction: Prog.t -> model scenario ----

   Straight-line abstraction of a generated program: workers become
   programs [0..n-1] (matching [Alert_peer] indices), main becomes program
   [n]; Mesa wait loops flatten to single Wait/AlertWait calls;
   [Yield]/[Work] vanish.  [allow_deadlock] is on — the abstraction drops
   the re-check loops, so stranding is expected, not a finding. *)

let abstract (p : Prog.t) =
  let m i = Printf.sprintf "m%d" i
  and s i = Printf.sprintf "s%d" i
  and fm i = Printf.sprintf "fm%d" i
  and fc i = Printf.sprintf "fc%d" i
  and tm i = Printf.sprintf "tm%d" i
  and tc i = Printf.sprintf "tc%d" i
  and irq i = Printf.sprintf "irq%d" i in
  let objects =
    List.concat
      [
        List.init p.Prog.mutexes (fun i -> (m i, Sort.Thread));
        List.init p.Prog.sems (fun i -> (s i, Sort.Semaphore));
        List.concat
          (List.init p.Prog.flags (fun i ->
               [ (fm i, Sort.Thread); (fc i, Sort.Thread_set) ]));
        List.concat
          (List.init p.Prog.tokens (fun i ->
               [ (tm i, Sort.Thread); (tc i, Sort.Thread_set) ]));
        List.init p.Prog.irqs (fun i -> (irq i, Sort.Semaphore));
      ]
  in
  let acquire x = P.call "Acquire" [ P.Aobj x ]
  and release x = P.call "Release" [ P.Aobj x ] in
  let steps_of_op = function
    | Prog.Lock (ms, _) ->
      List.map (fun i -> acquire (m i)) ms
      @ List.rev_map (fun i -> release (m i)) ms
    | Prog.Sem (i, _) | Prog.Timed_sem (i, _) ->
      [ P.call "P" [ P.Aobj (s i) ]; P.call "V" [ P.Aobj (s i) ] ]
    | Prog.Await i | Prog.Timed_await i ->
      [
        acquire (fm i);
        P.call "Wait" [ P.Aobj (fm i); P.Aobj (fc i) ];
        release (fm i);
      ]
    | Prog.Alert_await i ->
      [
        acquire (fm i);
        P.call "AlertWait" [ P.Aobj (fm i); P.Aobj (fc i) ];
        release (fm i);
      ]
    | Prog.Set_flag i ->
      [ acquire (fm i); P.call "Broadcast" [ P.Aobj (fc i) ]; release (fm i) ]
    | Prog.Produce i ->
      [ acquire (tm i); P.call "Signal" [ P.Aobj (tc i) ]; release (tm i) ]
    | Prog.Consume i ->
      [
        acquire (tm i);
        P.call "Wait" [ P.Aobj (tm i); P.Aobj (tc i) ];
        release (tm i);
      ]
    | Prog.Alert_peer w -> [ P.call "Alert" [ P.Athread w ] ]
    | Prog.Poll_alert -> [ P.call "TestAlert" [] ]
    | Prog.Interrupt_v i ->
      [ P.call "V" [ P.Aobj (irq i) ]; P.call "P" [ P.Aobj (irq i) ] ]
    | Prog.Yield | Prog.Work _ -> []
  in
  let program ops = List.concat_map steps_of_op ops in
  P.make ~name:"gen-abstract" ~objects
    ~programs:(List.map program p.Prog.threads @ [ program p.Prog.main ])
    ~allow_deadlock:true ()

(* ---- differential fingerprints ---- *)

let errors_sig (es : Conformance.error list) =
  List.map
    (fun (e : Conformance.error) ->
      (e.Conformance.index, e.Conformance.event.action, e.Conformance.message))
    es

let conformance_sig iface trace =
  match Conformance.check iface trace with
  | r ->
    Ok (errors_sig r.Conformance.errors,
        errors_sig r.Conformance.requires_violations)
  | exception _ -> Error "raised"

let checker_sig iface scenario =
  match Checker.run ~max_states:200_000 iface scenario with
  | r ->
    Ok
      ( (match r.Checker.violation with
        | None -> ""
        | Some v ->
          (match v.Checker.kind with
          | `Invariant -> "invariant: "
          | `Deadlock -> "deadlock: "
          | `Requires -> "requires: ")
          ^ v.Checker.message),
        r.Checker.states,
        r.Checker.transitions )
  | exception _ -> Error "raised"

(* ---- the table ---- *)

let policies = [| Generate.Safe; Generate.Free; Generate.Irq |]

(* Directed-pool predicates over generated programs: rejection-sample the
   generator's own stream for the shapes a mutant class needs.  A shared
   semaphore exercises P's enabling condition; an alert aimed at a parked
   [alert_wait] exercises AlertResume's Alerted case. *)

let sem_indices ops =
  List.filter_map
    (function Prog.Sem (s, _) | Prog.Timed_sem (s, _) -> Some s | _ -> None)
    ops

let has_sem_contention (p : Prog.t) =
  let bodies = p.Prog.main :: p.Prog.threads in
  List.exists
    (fun s ->
      List.length (List.filter (fun ops -> List.mem s (sem_indices ops)) bodies)
      >= 2)
    (List.sort_uniq compare (List.concat_map sem_indices bodies))

(* The alerter must live in a body other than the waiter's own — a
   self-alert after the wait never reaches AlertResume's Alerted case. *)
let has_alert_handshake (p : Prog.t) =
  List.exists
    (fun w ->
      (match List.nth_opt p.Prog.threads w with
      | Some ops ->
        List.exists (function Prog.Alert_await _ -> true | _ -> false) ops
      | None -> false)
      && List.exists
           (fun (i, ops) ->
             i <> w
             && List.exists
                  (function Prog.Alert_peer x -> x = w | _ -> false)
                  ops)
           ((-1, p.Prog.main)
           :: List.mapi (fun i ops -> (i, ops)) p.Prog.threads))
    (List.init (List.length p.Prog.threads) Fun.id)

(* First [want] programs of the (seed, features) generation stream that
   satisfy [pred]; bounded scan keeps the table total. *)
let collect ~seed ~features ~want pred =
  let rec go i acc found =
    if found >= want || i >= 400 then List.rev acc
    else
      let rng = Rng.cell ~base:seed ~index:i in
      let policy = policies.(i mod Array.length policies) in
      let program = Generate.program ~small:true ~policy ~features rng in
      if pred program then
        go (i + 1) ((i, program, Rng.int rng 1_000_000) :: acc) (found + 1)
      else go (i + 1) acc found
  in
  go 0 [] 0

let all_features =
  [ Workload.Alerts; Workload.Timeouts; Workload.Interrupts ]

let kill_table ?(scenarios = 12) ~seed () =
  let pristine = Spec_core.Threads_interface.final in
  (* Concrete material: (label, trace) per generated run.  The conforming
     simulator gives clean traces (catches strengthened mutants); the
     divergent baselines give violating traces (catches weakened ones);
     the directed alert-handshake pool gives traces through AlertResume's
     Alerted case (catches its ENSURES/WHEN mutants).  Handshake programs
     run under several schedule seeds — the alert only lands in the
     window on some interleavings. *)
  let backends = List.filter_map Bk.find [ "sim"; "naive"; "hoare" ] in
  let trace_of (b : Bk.t) program run_seed =
    let wl = Prog.to_workload ~name:"gen-mutant" program in
    snd (Cc.run_one b wl ~seed:run_seed)
  in
  let general =
    List.concat_map
      (fun (b : Bk.t) ->
        List.map
          (fun (i, program, run_seed) ->
            ( Printf.sprintf "%s trace, scenario %d" b.Bk.name i,
              trace_of b program run_seed ))
          (collect ~seed:(seed + 0x7ace) ~features:b.Bk.supports
             ~want:scenarios (fun _ -> true)))
      backends
  in
  let handshakes =
    match Bk.find "sim" with
    | None -> []
    | Some sim ->
      List.concat_map
        (fun (i, program, run_seed) ->
          List.init 4 (fun k ->
              ( Printf.sprintf "sim alert-handshake, scenario %d seed#%d" i k,
                trace_of sim program (run_seed + k) )))
        (collect ~seed:(seed + 0xa1e7) ~features:all_features ~want:4
           has_alert_handshake)
  in
  let traces = general @ handshakes in
  (* Abstract material: small scenarios model-checked exhaustively, plus
     a directed semaphore-contention pool — enabling-condition mutants
     (dropped or contradictory WHEN) only change the state graph where
     two threads actually contend. *)
  let abstracts =
    List.map
      (fun (i, program, _) -> (Printf.sprintf "scenario %d" i, abstract program))
      (collect ~seed:(seed + 0xab5) ~features:all_features
         ~want:(min scenarios 8) (fun _ -> true))
    @ List.map
        (fun (i, program, _) ->
          (Printf.sprintf "sem-contention scenario %d" i, abstract program))
        (collect ~seed:(seed + 0x5e8) ~features:all_features ~want:4
           has_sem_contention)
  in
  (* Pristine fingerprints are mutant-independent: compute each once. *)
  let traces =
    List.map (fun (l, t) -> (l, t, conformance_sig pristine t)) traces
  in
  let abstracts =
    List.map (fun (l, s) -> (l, s, checker_sig pristine s)) abstracts
  in
  let kill (m : Spec_mutants.t) =
    let concrete =
      List.find_map
        (fun (label, trace, psig) ->
          if psig <> conformance_sig m.Spec_mutants.m_iface trace then
            Some ("concrete: " ^ label)
          else None)
        traces
    in
    match concrete with
    | Some _ as k -> k
    | None ->
      List.find_map
        (fun (label, scenario, psig) ->
          if psig <> checker_sig m.Spec_mutants.m_iface scenario then
            Some ("abstract: model check, " ^ label)
          else None)
        abstracts
  in
  List.map
    (fun (m : Spec_mutants.t) ->
      {
        r_mutant = m.Spec_mutants.m_name;
        r_expected = m.Spec_mutants.m_expected;
        r_killed = kill m;
      })
    (Spec_mutants.all ())

let killed rows =
  List.length (List.filter (fun r -> r.r_killed <> None) rows)

let render ppf rows =
  Format.fprintf ppf "mutant kill table (%d/%d killed)@." (killed rows)
    (List.length rows);
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-32s %-28s %s@." r.r_mutant r.r_expected
        (match r.r_killed with
        | Some how -> "KILLED (" ^ how ^ ")"
        | None -> "survived"))
    rows
