open Spec_core

(* ---- the exploration graph ---- *)

(* A node: an abstract state, one phase per thread, and the policy's
   ghost.  Policies see the first two as a [Program.view]. *)
type 'g node = { state : State.t; phases : Program.phase array; ghost : 'g }

(* Positional ids: node keys and any printed state depend only on the
   scenario, not on process history or the executing domain. *)
let spec_objects (program : Program.t) =
  List.mapi
    (fun i (name, sort) -> (name, Spec_obj.make ~oid:(i + 1) name sort))
    program.objects

let initial_state (program : Program.t) objects =
  List.fold_left
    (fun st (name, obj) ->
      let v =
        match List.assoc_opt name program.initials with
        | Some v -> v
        | None -> Value.initial obj.Spec_obj.sort
      in
      State.add obj v st)
    State.empty objects

(* A program step resolved against the interface once per exploration:
   its procedure compiled, applied to its arguments, with each action. *)
type resolved = {
  step : Program.step;
  call : Semantics.call;
  actions : Proc.action array;
}

let resolve compiled iface objects layout (step : Program.step) =
  let proc = Semantics.find compiled step.proc in
  let spec = Semantics.spec proc in
  let bindings =
    Semantics.bindings_of_args iface spec
      (List.map
         (function
           | Program.Aobj name -> `Obj (List.assoc name objects)
           | Program.Athread i -> `Val (Value.Thread (Program.tid_of i)))
         step.args)
  in
  { step;
    call = Semantics.call proc bindings layout;
    actions = Array.of_list (Proc.actions spec) }

(* Thread [i]'s phase after action [k] of step [s]. *)
let advance steps r k s =
  if k + 1 >= Array.length r.actions then
    if s + 1 >= Array.length steps then Program.Done else Program.Idle (s + 1)
  else Program.Mid (s, k + 1)

(* Keys are prefix-free byte strings: each slot's value, then each
   phase.  Every state of a program has the same slots. *)
let rec add_int buf n =
  if n land lnot 127 = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 127 lor 128));
    add_int buf (n lsr 7)
  end

let add_key buf state phases =
  Buffer.clear buf;
  let tag c n = Buffer.add_char buf c; add_int buf n in
  Array.iter
    (function
      | Value.Nil -> tag 'N' 0
      | Value.Thread t -> tag 'T' t
      | Value.Bool b -> tag 'B' (Bool.to_int b)
      | Value.Int n -> tag 'I' n
      | Value.Sem s -> tag 'S' (if s = Value.Available then 0 else 1)
      | Value.Set s ->
        tag '{' (Threads_util.Tid.Set.cardinal s);
        Threads_util.Tid.Set.iter (add_int buf) s)
    state.State.vals;
  Array.iter
    (function
      | Program.Idle s -> tag 'I' s
      | Program.Mid (s, k) -> tag 'M' s; add_int buf k
      | Program.Done -> tag 'D' 0)
    phases

(* ---- the one DFS ---- *)

type 'g policy = {
  root : 'g;
  key : Buffer.t -> 'g -> unit;
  stop : unit -> bool;
  report :
    'g -> [ `Invariant of Program.invariant_class | `Requires ] -> string ->
    unit;
  transition :
    Program.view -> 'g -> int -> Program.step -> Proc.action ->
    Semantics.outcome -> 'g;
  stuck : Program.view -> 'g -> (int * Proc.action) list -> unit;
}

let explore ~max_states iface (program : Program.t) policy =
  let objects = spec_objects program in
  let view state phases = { Program.state; phases; objects } in
  let nprogs = Array.length program.programs in
  let check_invariants node =
    if program.invariants <> [] then begin
      let v = view node.state node.phases in
      List.iter
        (fun (cls, inv) ->
          match inv v with
          | None -> ()
          | Some message -> policy.report node.ghost (`Invariant cls) message)
        program.invariants
    end
  in
  let root =
    { state = initial_state program objects;
      phases = Array.make nprogs (Program.Idle 0); ghost = policy.root }
  in
  let compiled = Semantics.compile iface in
  let steps = Array.map Array.of_list program.programs in
  (* Each step is resolved when a thread first reaches it. *)
  let resolved =
    Array.map
      (Array.map (fun step -> lazy (resolve compiled iface objects root.state step)))
      steps
  in
  let step_at i s = Lazy.force resolved.(i).(s) in
  (* The action thread [i] performs next, if any: [(r, k, s)] for action
     [k] of step [s]. *)
  let pending phases i =
    match phases.(i) with
    | Program.Done -> None
    | Program.Idle s ->
      if s >= Array.length steps.(i) then None else Some (step_at i s, 0, s)
    | Program.Mid (s, k) -> Some (step_at i s, k, s)
  in
  let visited = Hashtbl.create 4096 in
  let buf = Buffer.create 64 in
  let states = ref 0 and transitions = ref 0 in
  let stack = ref [ root ] in
  check_invariants root;
  while (not (policy.stop ())) && !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      stack := rest;
      add_key buf node.state node.phases;
      policy.key buf node.ghost;
      let key = Buffer.contents buf in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.replace visited key ();
        incr states;
        if !states > max_states then
          failwith "Checker: state-space bound exceeded";
        let here = view node.state node.phases in
        let any_enabled = ref false in
        let blocked = ref [] in
        for i = 0 to nprogs - 1 do
          match pending node.phases i with
          | None -> ()
          | Some (r, k, s) ->
            let action = r.actions.(k) in
            blocked := (i, action) :: !blocked;
            (* REQUIRES at the first action of a call. *)
            let self = Program.tid_of i in
            if k = 0 && not (Semantics.requires_holds r.call ~self node.state) then
              policy.report node.ghost `Requires
                (Printf.sprintf "t%d calls %s with REQUIRES false"
                   self r.step.proc);
            List.iter
              (fun (o : Semantics.outcome) ->
                any_enabled := true;
                incr transitions;
                let ghost = policy.transition here node.ghost i r.step action o in
                let phases = Array.copy node.phases in
                phases.(i) <- advance steps.(i) r k s;
                let node' = { state = o.o_post; phases; ghost } in
                check_invariants node';
                stack := node' :: !stack)
              (Semantics.outcomes r.call ~self k node.state)
        done;
        if (not !any_enabled) && !blocked <> [] then
          policy.stuck here node.ghost (List.rev !blocked)
      end
  done;
  (!states, !transitions)

(* ---- the first-violation policy ---- *)

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

(* The ghost is the path from the root, newest action first. *)
let run ?(max_states = 2_000_000) iface (scenario : Program.t) =
  let violation = ref None in
  let found kind message trace =
    if !violation = None then
      violation := Some { kind; message; trace = List.rev trace }
  in
  let states, transitions =
    explore ~max_states iface scenario
      {
        root = [];
        key = (fun _ _ -> ());
        stop = (fun () -> !violation <> None);
        report =
          (fun trace kind message ->
            found
              (match kind with
              | `Invariant _ -> `Invariant
              | `Requires -> `Requires)
              message trace);
        transition =
          (fun _ trace thread step action o ->
            {
              thread;
              proc = step.proc;
              action = action.Proc.a_name;
              outcome = o.o_outcome;
              case = o.o_case;
            }
            :: trace);
        stuck =
          (fun _ trace _ ->
            if not scenario.allow_deadlock then
              found `Deadlock "no enabled action but some programs unfinished"
                trace);
      }
  in
  { violation = !violation; states; transitions }
