open Spec_core

type trace_entry = {
  thread : int;
  proc : string;
  action : string;
  outcome : Proc.outcome;
  case : int;
}

let pp_trace_entry ppf e =
  Format.fprintf ppf "t%d: %s.%s [%a]" (Program.tid_of e.thread) e.proc
    e.action Proc.pp_outcome e.outcome

type violation = {
  kind : [ `Invariant | `Deadlock | `Requires ];
  message : string;
  trace : trace_entry list;
}

type result = {
  violation : violation option;
  states : int;
  transitions : int;
}

let pp_result ppf r =
  match r.violation with
  | None ->
    Format.fprintf ppf "no violation (%d states, %d transitions)" r.states
      r.transitions
  | Some v ->
    let kind =
      match v.kind with
      | `Invariant -> "invariant"
      | `Deadlock -> "deadlock"
      | `Requires -> "REQUIRES"
    in
    Format.fprintf ppf "%s violation after %d steps: %s (%d states explored)"
      kind (List.length v.trace) v.message r.states;
    List.iter (fun e -> Format.fprintf ppf "@\n  %a" pp_trace_entry e) v.trace

(* A node of the exploration graph. *)
type node = { state : State.t; phases : Program.phase array }

let node_key node =
  Buffer.contents (Frontend.key_buffer node.state node.phases)

let run ?(max_states = 2_000_000) iface (scenario : Program.t) =
  let fe = Frontend.make iface scenario in
  let nprogs = Array.length scenario.programs in
  let init = { state = fe.init_state; phases = Frontend.init_phases fe } in
  let visited = Hashtbl.create 4096 in
  let states = ref 0 and transitions = ref 0 in
  let violation = ref None in
  let check_invariant node trace =
    match scenario.invariant with
    | None -> ()
    | Some inv -> (
      match inv (Frontend.view fe node.state node.phases) with
      | None -> ()
      | Some message ->
        if !violation = None then
          violation := Some { kind = `Invariant; message; trace = List.rev trace })
  in
  (* DFS with an explicit stack of (node, reversed trace). *)
  let stack = ref [ (init, []) ] in
  check_invariant init [];
  while !violation = None && !stack <> [] do
    match !stack with
    | [] -> ()
    | (node, trace) :: rest -> (
      stack := rest;
      let key = node_key node in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.replace visited key ();
        incr states;
        if !states > max_states then
          failwith "Checker: state-space bound exceeded";
        (* Enumerate enabled transitions. *)
        let any_enabled = ref false in
        let all_done = ref true in
        for i = 0 to nprogs - 1 do
          match Frontend.pending fe node.phases i with
          | None -> ()
          | Some (step, proc, action, k, s) ->
            all_done := false;
            let self = Program.tid_of i in
            let bindings = Frontend.bindings_of fe step proc in
            (* REQUIRES at the first action of a call. *)
            if
              k = 0
              && not (Semantics.requires_holds proc ~self ~bindings node.state)
              && !violation = None
            then
              violation :=
                Some
                  {
                    kind = `Requires;
                    message =
                      Printf.sprintf "t%d calls %s with REQUIRES false" self
                        step.proc;
                    trace = List.rev trace;
                  };
            let outs =
              Semantics.outcomes iface proc action ~self ~bindings node.state
            in
            List.iter
              (fun (o : Semantics.outcome) ->
                any_enabled := true;
                incr transitions;
                let phases = Array.copy node.phases in
                phases.(i) <- Frontend.advance fe i proc k s;
                let node' = { state = o.o_post; phases } in
                let entry =
                  {
                    thread = i;
                    proc = step.proc;
                    action = action.Proc.a_name;
                    outcome = o.o_outcome;
                    case = o.o_case;
                  }
                in
                let trace' = entry :: trace in
                check_invariant node' trace';
                stack := (node', trace') :: !stack)
              outs
        done;
        if
          (not !any_enabled) && (not !all_done)
          && (not scenario.allow_deadlock)
          && !violation = None
        then
          violation :=
            Some
              {
                kind = `Deadlock;
                message = "no enabled action but some programs unfinished";
                trace = List.rev trace;
              }
      end)
  done;
  { violation = !violation; states = !states; transitions = !transitions }
