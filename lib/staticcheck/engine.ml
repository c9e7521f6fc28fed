(* Abstract model checker for the static spec verifier.

   Explores every interleaving a scenario's client programs admit under
   the interface specification — like {!Threads_model.Checker} — but over
   an *augmented* abstract transition system: each node carries a ghost
   "delivered" bit recording whether, somewhere on the path, another
   thread's action removed a parked waiter from a condition.  The bit
   separates the two deadlock families the plain checker conflates:

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
module Frontend = Threads_model.Frontend
module Tid = Threads_util.Tid

type scenario = {
  sc_name : string;
  sc_program : Program.t;
  sc_assert_delivery : bool;
      (* the scenario must be able to deliver a wakeup; if no path does,
         report the wakeup-waiting window *)
  sc_invariants : (string * (Program.view -> string option)) list;
      (* (diagnostic class, invariant) pairs checked at every node *)
}

type result = {
  r_findings : Finding.t list;
  r_states : int;
  r_transitions : int;
  r_covered : (string * string * int) list;
      (* (procedure, action, 0-based case) triples some transition fired *)
  r_delivery_reachable : bool;
}

type node = { state : State.t; phases : Program.phase array; delivered : bool }

let node_key node =
  let buf = Frontend.key_buffer node.state node.phases in
  Buffer.add_char buf (if node.delivered then 'd' else '-');
  Buffer.contents buf

(* Is program [j] parked inside a composition (it has executed at least
   the Enqueue of its current call)? *)
let parked phases j =
  j >= 0
  && j < Array.length phases
  &&
  match phases.(j) with
  | Program.Mid (_, k) -> k >= 1
  | Program.Idle _ | Program.Done -> false

let run ?(max_states = 1_000_000) iface (sc : scenario) =
  let scenario = sc.sc_program in
  let fe = Frontend.make iface scenario in
  let thread_objs =
    List.filter (fun (_, o) -> o.Spec_obj.sort = Sort.Thread) fe.objects
  in
  let cond_objs =
    List.filter (fun (_, o) -> o.Spec_obj.sort = Sort.Thread_set) fe.objects
  in
  let nprogs = Array.length scenario.Program.programs in
  let init =
    { state = fe.init_state; phases = Frontend.init_phases fe;
      delivered = false }
  in
  let pending node i = Frontend.pending fe node.phases i in
  let findings = ref [] in
  let add ~cls msg =
    findings := Finding.make ~cls ~where:sc.sc_name msg :: !findings
  in
  let covered = Hashtbl.create 64 in
  let delivery_reachable = ref false in
  let visited = Hashtbl.create 4096 in
  let states = ref 0 and transitions = ref 0 in
  let check_invariants node =
    List.iter
      (fun (cls, inv) ->
        match inv (Frontend.view fe node.state node.phases) with
        | None -> ()
        | Some msg -> add ~cls msg)
      sc.sc_invariants
  in
  (* Did thread [self]'s transition remove a *parked other* thread from a
     condition?  That is a wakeup delivery. *)
  let delivers ~self ~pre_node post_state =
    List.exists
      (fun (_, obj) ->
        let before = Value.as_set (State.get pre_node.state obj) in
        let after = Value.as_set (State.get post_state obj) in
        Tid.Set.exists
          (fun u -> u <> self && parked pre_node.phases (u - 1))
          (Tid.Set.diff before after))
      cond_objs
  in
  (* Did thread [self] overwrite a Thread-sorted object another thread
     owns?  Mutex ownership transfers only through the owner's own
     Release/Enqueue; any other change is theft. *)
  let theft ~self ~proc ~action ~pre_state post_state =
    List.iter
      (fun (name, obj) ->
        match State.get pre_state obj with
        | Value.Thread u when u <> self ->
          if not (Value.equal (State.get pre_state obj) (State.get post_state obj))
          then
            add ~cls:"mutex-theft"
              (Printf.sprintf
                 "%s.%s by t%d changes %s from t%d while t%d holds it" proc
                 action self name u u)
        | _ -> ())
      thread_objs
  in
  let stack = ref [ init ] in
  check_invariants init;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      stack := rest;
      let key = node_key node in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.replace visited key ();
        incr states;
        if !states > max_states then
          failwith "Staticcheck.Engine: state-space bound exceeded";
        let any_enabled = ref false in
        let all_done = ref true in
        for i = 0 to nprogs - 1 do
          match pending node i with
          | None -> ()
          | Some (step, proc, action, k, s) ->
            all_done := false;
            let self = Program.tid_of i in
            let bindings = Frontend.bindings_of fe step proc in
            if
              k = 0
              && not (Semantics.requires_holds proc ~self ~bindings node.state)
            then
              add ~cls:"requires-violation"
                (Printf.sprintf "t%d calls %s with REQUIRES false" self
                   step.Program.proc);
            let outs =
              Semantics.outcomes iface proc action ~self ~bindings node.state
            in
            List.iter
              (fun (o : Semantics.outcome) ->
                any_enabled := true;
                incr transitions;
                Hashtbl.replace covered
                  (step.Program.proc, action.Proc.a_name, o.Semantics.o_case)
                  ();
                theft ~self ~proc:step.Program.proc
                  ~action:action.Proc.a_name ~pre_state:node.state
                  o.Semantics.o_post;
                let delivered_now =
                  delivers ~self ~pre_node:node o.Semantics.o_post
                in
                if delivered_now then delivery_reachable := true;
                let phases = Array.copy node.phases in
                phases.(i) <- Frontend.advance fe i proc k s;
                let node' =
                  { state = o.Semantics.o_post; phases;
                    delivered = node.delivered || delivered_now }
                in
                check_invariants node';
                stack := node' :: !stack)
              outs
        done;
        if (not !any_enabled) && not !all_done then begin
          let blocked =
            List.filter (fun i -> pending node i <> None)
              (List.init nprogs (fun i -> i))
          in
          let blocked_str =
            String.concat "," (List.map string_of_int blocked)
          in
          if node.delivered then
            add ~cls:"signal-loss"
              (Printf.sprintf
                 "wakeup delivered yet threads [%s] are stuck forever"
                 blocked_str)
          else
            let alerted_parked =
              List.filter
                (fun i ->
                  Tid.Set.mem (Program.tid_of i) (State.alerts node.state)
                  &&
                  match pending node i with
                  | Some (_, _, action, _, _) ->
                    action.Proc.a_name = "AlertResume"
                  | None -> false)
                blocked
            in
            if alerted_parked <> [] then
              add ~cls:"alert-loss"
                (Printf.sprintf
                   "threads [%s] are alerted but parked forever in \
                    AlertResume"
                   (String.concat ","
                      (List.map string_of_int alerted_parked)))
            else if not scenario.Program.allow_deadlock then
              add ~cls:"deadlock"
                (Printf.sprintf "no enabled action; threads [%s] unfinished"
                   blocked_str)
        end
      end
  done;
  let findings = List.rev !findings in
  let findings =
    if sc.sc_assert_delivery && not !delivery_reachable then
      findings
      @ [
          Finding.make ~cls:"wakeup-window" ~where:sc.sc_name
            "no interleaving can deliver a wakeup to a parked waiter — \
             the wakeup-waiting window spans the whole scenario";
        ]
    else findings
  in
  {
    r_findings = Finding.dedup findings;
    r_states = !states;
    r_transitions = !transitions;
    r_covered =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) covered []);
    r_delivery_reachable = !delivery_reachable;
  }
