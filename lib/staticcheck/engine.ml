(* The static spec verifier's checker: the classifying policy over
   {!Threads_model.Checker.explore}, the DFS the first-violation checker
   runs too.  Where that checker stops at the first violation, this
   policy explores everything and reports every finding, over an
   *augmented* abstract transition system: each node carries a ghost
   "delivered" bit recording whether, somewhere on the path, another
   thread's action removed a parked waiter from a condition.  The bit is
   part of the visited key, and separates the two deadlock families the
   plain checker conflates:

   - a benign ordering deadlock (the paper's Signal may legally wake
     nobody — no liveness), reached with [delivered = false];
   - a lost wakeup, where a signal *was* delivered and a waiter is stuck
     anyway ([signal-loss]), or where no delivery is reachable at all in
     a scenario that must exhibit one ([wakeup-window] — the paper's
     wakeup-waiting defect, rediscovered when Enqueue is mutated to keep
     the mutex).

   Per-transition checks additionally flag mutex theft (a thread
   overwriting a Thread-sorted object another thread owns) and classified
   invariant violations; deadlocks where an alerted thread is parked in
   AlertResume are [alert-loss].  Case coverage is collected so the
   driver can report spec cases no scenario can reach. *)

open Spec_core
module Program = Threads_model.Program
module Checker = Threads_model.Checker
module Tid = Threads_util.Tid

type result = {
  r_findings : Finding.t list;
  r_states : int;
  r_transitions : int;
  r_covered : (string * string * int) list;
      (* (procedure, action, 0-based case) triples some transition fired *)
  r_delivery_reachable : bool;
}

(* Is program [j] parked inside a composition (it has executed at least
   the Enqueue of its current call)? *)
let parked phases j =
  j >= 0
  && j < Array.length phases
  &&
  match phases.(j) with
  | Program.Mid (_, k) -> k >= 1
  | Program.Idle _ | Program.Done -> false

let tids threads =
  Tid.Set.to_string
    (Tid.Set.of_list (List.map (fun (i, _) -> Program.tid_of i) threads))

let run ?(max_states = 1_000_000) iface (program : Program.t) =
  let findings = ref [] in
  let add ~cls msg =
    findings := Finding.make ~cls ~where:program.name msg :: !findings
  in
  let covered = Hashtbl.create 64 in
  let delivery_reachable = ref false in
  (* Did thread [self]'s transition remove a *parked other* thread from a
     condition?  That is a wakeup delivery. *)
  let delivers ~self (pre : Program.view) post_state =
    List.exists
      (fun (_, obj) ->
        obj.Spec_obj.sort = Sort.Thread_set
        &&
        let before = Value.as_set (State.get pre.state obj) in
        let after = Value.as_set (State.get post_state obj) in
        Tid.Set.exists
          (fun u -> u <> self && parked pre.phases (u - 1))
          (Tid.Set.diff before after))
      pre.objects
  in
  (* Did thread [self] overwrite a Thread-sorted object another thread
     owns?  Mutex ownership transfers only through the owner's own
     Release/Enqueue; any other change is theft. *)
  let theft ~self ~proc ~action (pre : Program.view) post_state =
    List.iter
      (fun (name, obj) ->
        match State.get pre.state obj with
        | Value.Thread u as held
          when obj.Spec_obj.sort = Sort.Thread && u <> self ->
          if not (Value.equal held (State.get post_state obj)) then
            add ~cls:"mutex-theft"
              (Printf.sprintf
                 "%s.%s by t%d changes %s from t%d while t%d holds it" proc
                 action self name u u)
        | _ -> ())
      pre.objects
  in
  let transition pre delivered i (step : Program.step) (action : Proc.action)
      (o : Semantics.outcome) =
    let self = Program.tid_of i in
    Hashtbl.replace covered (step.proc, action.a_name, o.o_case) ();
    theft ~self ~proc:step.proc ~action:action.a_name pre o.o_post;
    let delivered_now = delivers ~self pre o.o_post in
    if delivered_now then delivery_reachable := true;
    delivered || delivered_now
  in
  let stuck (node : Program.view) delivered blocked =
    if delivered then
      add ~cls:"signal-loss"
        (Printf.sprintf "wakeup delivered yet threads %s are stuck forever"
           (tids blocked))
    else
      match
        List.filter
          (fun (i, (action : Proc.action)) ->
            Tid.Set.mem (Program.tid_of i) (State.alerts node.state)
            && action.a_name = "AlertResume")
          blocked
      with
      | _ :: _ as alerted_parked ->
        add ~cls:"alert-loss"
          (Printf.sprintf
             "threads %s are alerted but parked forever in AlertResume"
             (tids alerted_parked))
      | [] ->
        if not program.allow_deadlock then
          add ~cls:"deadlock"
            (Printf.sprintf "no enabled action; threads %s unfinished"
               (tids blocked))
  in
  let states, transitions =
    Checker.explore ~max_states iface program
      {
        Checker.root = false;
        key =
          (fun buf delivered ->
            Buffer.add_char buf (if delivered then 'd' else '-'));
        stop = (fun () -> false);
        report =
          (fun _ kind msg ->
            match kind with
            | `Invariant cls -> add ~cls:(Program.class_name cls) msg
            | `Requires -> add ~cls:"requires-violation" msg);
        transition;
        stuck;
      }
  in
  let findings = List.rev !findings in
  let findings =
    if program.assert_delivery && not !delivery_reachable then
      findings
      @ [
          Finding.make ~cls:"wakeup-window" ~where:program.name
            "no interleaving can deliver a wakeup to a parked waiter — \
             the wakeup-waiting window spans the whole scenario";
        ]
    else findings
  in
  {
    r_findings = Finding.dedup findings;
    r_states = states;
    r_transitions = transitions;
    r_covered =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) covered []);
    r_delivery_reachable = !delivery_reachable;
  }
