(* The tree-walking interpreter of the spec clauses that the compiled
   evaluator ([Spec_core.Semantics]) replaced, kept unchanged as the
   reference the differential test compares it against: [Term.eval] and
   [Formula.eval] over a name-keyed environment, and the old [Semantics]
   entry points on top of them. *)

open Spec_core

module Term = struct
  include Term

  type env = {
    self : Threads_util.Tid.t;
    bindings : (string * binding) list;
    pre : State.t;
    post : State.t option;
    result : Value.t option;
  }

  let env ~self ~bindings ~pre ?post ?result () =
    { self; bindings; pre; post; result }

  let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

  let resolve env name =
    match List.assoc_opt name env.bindings with
    | Some b -> b
    | None ->
      if name = "alerts" then Obj Spec_obj.alerts
      else error "unbound name %s" name

  let rec eval env t =
    match t with
    | Self -> Value.Thread env.self
    | Nil_const -> Value.Nil
    | Lit v -> v
    | Empty_set -> Value.Set Threads_util.Tid.Set.empty
    | Result -> (
      match env.result with
      | Some v -> v
      | None -> error "RESULT referenced with no return value")
    | Ref (name, stage) -> (
      match resolve env name with
      | Const v -> v
      | Obj obj -> (
        match stage with
        | Pre -> State.get env.pre obj
        | Post -> (
          match env.post with
          | Some post -> State.get post obj
          | None -> error "%s_post referenced in a one-state predicate" name)))
    | Insert (s, x) -> Value.insert (eval env s) (eval env x)
    | Delete (s, x) -> Value.delete (eval env s) (eval env x)

end

module Formula = struct
  include Formula

  let rec eval env f =
    match f with
    | True -> true
    | False -> false
    | Truth t -> Value.as_bool (Term.eval env t)
    | Eq (a, b) -> Value.equal (Term.eval env a) (Term.eval env b)
    | Iff (a, b) -> eval env a = eval env b
    | Member (x, s) -> Value.member (Term.eval env x) (Term.eval env s)
    | Subset (a, b) -> Value.subset (Term.eval env a) (Term.eval env b)
    | Not f -> not (eval env f)
    | And (a, b) -> eval env a && eval env b
    | Or (a, b) -> eval env a || eval env b
    | Implies (a, b) -> (not (eval env a)) || eval env b
    | Unchanged names ->
      let same name =
        Value.equal
          (Term.eval env (Term.Ref (name, Term.Pre)))
          (Term.eval env (Term.Ref (name, Term.Post)))
      in
      List.for_all same names

end

module Semantics = struct
  module Tid = Threads_util.Tid

  type outcome = {
    o_case : int;
    o_outcome : Proc.outcome;
    o_post : State.t;
    o_result : Value.t option;
  }

  let bindings_of_args iface (proc : Proc.t) args =
    let formals = proc.p_formals in
    if List.length formals <> List.length args then
      invalid_arg
        (Printf.sprintf "%s: expected %d arguments, got %d" proc.p_name
           (List.length formals) (List.length args));
    List.map2
      (fun (f : Proc.formal) arg ->
        let sort = Proc.sort_of_type iface f.f_type in
        match (f.f_mode, arg) with
        | Proc.By_var, `Obj obj ->
          if not (Sort.equal obj.Spec_obj.sort sort) then
            invalid_arg
              (Format.asprintf "%s: VAR %s expects sort %a, got object %a"
                 proc.p_name f.f_name Sort.pp sort Spec_obj.pp obj);
          (f.f_name, Term.Obj obj)
        | Proc.By_value, `Val v ->
          if not (Value.has_sort v sort) then
            invalid_arg
              (Format.asprintf "%s: %s expects sort %a, got %a" proc.p_name
                 f.f_name Sort.pp sort Value.pp v);
          (f.f_name, Term.Const v)
        | Proc.By_var, `Val _ ->
          invalid_arg
            (Printf.sprintf "%s: VAR formal %s needs an object" proc.p_name
               f.f_name)
        | Proc.By_value, `Obj _ ->
          invalid_arg
            (Printf.sprintf "%s: by-value formal %s needs a value" proc.p_name
               f.f_name))
      formals args

  let requires_holds (proc : Proc.t) ~self ~bindings pre =
    let env = Term.env ~self ~bindings ~pre () in
    Formula.eval env proc.p_requires

  let enabled (action : Proc.action) ~self ~bindings pre =
    let env = Term.env ~self ~bindings ~pre () in
    List.concat
      (List.mapi
         (fun i (c : Proc.case) -> if Formula.eval env c.c_when then [ i ] else [])
         action.a_cases)

  (* Objects the procedure may modify, resolved through the actual bindings.
     Global names in MODIFIES (e.g. "alerts") resolve via Term.resolve. *)
  let modified_objects ~self ~bindings pre (proc : Proc.t) =
    let env = Term.env ~self ~bindings ~pre () in
    List.filter_map
      (fun name ->
        match Term.resolve env name with
        | Term.Obj obj -> Some obj
        | Term.Const _ -> None)
      proc.p_modifies
    |> List.sort_uniq Spec_obj.compare

  (* Thread identities that candidate set values may be built from: SELF,
     every by-value thread argument, and the current members of the set. *)
  let relevant_threads ~self ~bindings v =
    let from_bindings =
      List.filter_map
        (fun (_, b) ->
          match b with Term.Const (Value.Thread t) -> Some t | _ -> None)
        bindings
    in
    let members =
      match v with Value.Set s -> Tid.Set.elements s | _ -> []
    in
    List.sort_uniq Tid.compare ((self :: from_bindings) @ members)

  let candidate_values ~self ~bindings (obj : Spec_obj.t) pre_value =
    let dedup vs = List.sort_uniq Value.compare vs in
    match obj.sort with
    | Sort.Thread ->
      dedup [ pre_value; Value.Nil; Value.Thread self ]
    | Sort.Semaphore ->
      [ Value.Sem Value.Available; Value.Sem Value.Unavailable ]
    | Sort.Bool -> [ Value.Bool false; Value.Bool true ]
    | Sort.Int -> [ pre_value ]
    | Sort.Thread_set ->
      let threads = relevant_threads ~self ~bindings pre_value in
      let s = Value.as_set pre_value in
      let with_each =
        List.concat_map
          (fun t ->
            [ Value.Set (Tid.Set.add t s); Value.Set (Tid.Set.remove t s) ])
          threads
      in
      dedup (pre_value :: Value.Set Tid.Set.empty :: with_each)

  let result_candidates (proc : Proc.t) =
    match proc.p_returns with
    | None -> [ None ]
    | Some (_, Sort.Bool) -> [ Some (Value.Bool false); Some (Value.Bool true) ]
    | Some (_, Sort.Int) -> [ Some (Value.Int 0) ]
    | Some (_, sort) ->
      invalid_arg
        (Format.asprintf "%s: unsupported return sort %a" proc.p_name Sort.pp
           sort)

  (* Cartesian product of candidate posts over the modified objects. *)
  let candidate_posts ~self ~bindings pre objs =
    let rec go st = function
      | [] -> [ st ]
      | obj :: rest ->
        let cands = candidate_values ~self ~bindings obj (State.get pre obj) in
        List.concat_map (fun v -> go (State.set st obj v) rest) cands
    in
    go pre objs

  let outcomes iface (proc : Proc.t) (action : Proc.action) ~self ~bindings pre =
    ignore iface;
    let objs = modified_objects ~self ~bindings pre proc in
    let posts = candidate_posts ~self ~bindings pre objs in
    let results = result_candidates proc in
    let pre_env = Term.env ~self ~bindings ~pre () in
    let per_case i (c : Proc.case) =
      if not (Formula.eval pre_env c.c_when) then []
      else
        List.concat_map
          (fun post ->
            List.filter_map
              (fun result ->
                let env = Term.env ~self ~bindings ~pre ~post ?result () in
                if Formula.eval env c.c_ensures then
                  Some { o_case = i; o_outcome = c.c_outcome; o_post = post;
                         o_result = result }
                else None)
              results)
          posts
    in
    let all = List.concat (List.mapi per_case action.a_cases) in
    (* Deduplicate transitions that several candidate constructions reach. *)
    let cmp a b =
      let c = Int.compare a.o_case b.o_case in
      if c <> 0 then c
      else
        let c = State.compare a.o_post b.o_post in
        if c <> 0 then c else Option.compare Value.compare a.o_result b.o_result
    in
    List.sort_uniq cmp all

  let check_transition iface (proc : Proc.t) (action : Proc.action) ~self
      ~bindings ~pre ~post ~outcome ~result =
    ignore iface;
    (* Frame condition: objects outside MODIFIES must be unchanged. *)
    let modifiable = modified_objects ~self ~bindings pre proc in
    let frame_violation =
      List.find_opt
        (fun obj ->
          (not (List.exists (Spec_obj.equal obj) modifiable))
          && not (Value.equal (State.get pre obj) (State.get post obj)))
        (State.objects pre)
    in
    match frame_violation with
    | Some obj ->
      Error
        (Format.asprintf
           "%s.%s by %a: modifies %a which is outside MODIFIES AT MOST"
           proc.p_name action.a_name Tid.pp self Spec_obj.pp obj)
    | None ->
      let pre_env = Term.env ~self ~bindings ~pre () in
      let env = Term.env ~self ~bindings ~pre ~post ?result () in
      let matching =
        List.concat
          (List.mapi
             (fun i (c : Proc.case) ->
               if c.c_outcome = outcome && Formula.eval pre_env c.c_when
                  && Formula.eval env c.c_ensures
               then [ i ]
               else [])
             action.a_cases)
      in
      (match matching with
      | i :: _ -> Ok i
      | [] ->
        let describe (c : Proc.case) =
          let when_ok = Formula.eval pre_env c.c_when in
          let kind_ok = c.c_outcome = outcome in
          Format.asprintf "[%a: when=%b kind-match=%b ensures=%b]"
            Proc.pp_outcome c.c_outcome when_ok kind_ok
            (if when_ok && kind_ok then Formula.eval env c.c_ensures else false)
        in
        Error
          (Format.asprintf
             "%s.%s by %a with outcome %a admitted by no case: %s" proc.p_name
             action.a_name Tid.pp self Proc.pp_outcome outcome
             (String.concat " " (List.map describe action.a_cases))))
end

(* The trace replay of [Threads_model.Conformance] as it was before the
   compiled evaluator, over the interpreter above; [observe] sees every
   transition it checks. *)
module Conformance = struct
  module Tid = Threads_util.Tid

  type error = { index : int; event : Spec_trace.event; message : string }

  type report = {
    events : int;
    errors : error list;
    requires_violations : error list;
  }

  let ok r = r.errors = []

  let pp_report ppf r =
    Format.fprintf ppf "%d events, %d violations, %d requires-violations"
      r.events (List.length r.errors)
      (List.length r.requires_violations);
    List.iter
      (fun e ->
        Format.fprintf ppf "@\n  [%d] %a: %s" e.index Spec_trace.pp_event
          e.event e.message)
      r.errors

  (* Replay context. *)
  type ctx = {
    iface : Proc.interface;
    mutable state : State.t;
    objs : (int, Spec_obj.t) Hashtbl.t;  (* impl object id -> spec object *)
    (* thread -> remaining actions of an in-progress composition *)
    in_progress : (Tid.t, string * Proc.action list) Hashtbl.t;
    mutable errors : error list;
    mutable requires_violations : error list;
  }

  let obj_for ctx ~sort ~impl_id =
    match Hashtbl.find_opt ctx.objs impl_id with
    | Some o ->
      if not (Sort.equal o.Spec_obj.sort sort) then
        failwith
          (Format.asprintf "object #%d used at two sorts (%a vs %a)" impl_id
             Sort.pp o.Spec_obj.sort Sort.pp sort);
      o
    | None ->
      (* Deterministic identity derived from the impl id (a machine-local
         address or negative trace id), so error messages that print the
         object are byte-identical whichever domain ran the check.  Impl
         ids are unique per machine; [+1] keeps 0 free for [alerts]. *)
      let oid = if impl_id >= 0 then impl_id + 1 else impl_id in
      let o = Spec_obj.make ~oid (Printf.sprintf "o%d" impl_id) sort in
      Hashtbl.replace ctx.objs impl_id o;
      ctx.state <- State.add o (Value.initial sort) ctx.state;
      o

  (* Resolve the event's arguments against the procedure's formals, creating
     spec objects on first sight. *)
  let bindings_of ctx (proc : Proc.t) (ev : Spec_trace.event) =
    List.map
      (fun (f : Proc.formal) ->
        match (List.assoc_opt f.f_name (Spec_trace.args ev.action), f.f_mode) with
        | None, _ -> failwith (Printf.sprintf "event lacks argument %s" f.f_name)
        | Some impl_id, Proc.By_var ->
          let sort = Proc.sort_of_type ctx.iface f.f_type in
          (f.f_name, Term.Obj (obj_for ctx ~sort ~impl_id))
        | Some t, Proc.By_value -> (f.f_name, Term.Const (Value.Thread t)))
      proc.p_formals

  let arg_obj bindings name =
    match List.assoc_opt name bindings with
    | Some (Term.Obj o) -> o
    | _ -> failwith (Printf.sprintf "expected VAR argument %s" name)

  let arg_thread bindings name =
    match List.assoc_opt name bindings with
    | Some (Term.Const (Value.Thread t)) -> t
    | _ -> failwith (Printf.sprintf "expected thread argument %s" name)

  (* The abstraction function, applied per event: compute the abstract post
     state the implementation's action denotes.  This encodes only which
     procedure touched what — the legality of the transition is judged
     afterwards by the spec clauses. *)
  let post_of ctx bindings (ev : Spec_trace.event) =
    let st = ctx.state in
    let self = ev.self in
    let set_obj name v st = State.set st (arg_obj bindings name) v in
    let alerts_del st = State.set_alerts st (Tid.Set.remove self (State.alerts st)) in
    let raised = Spec_trace.raises ev.action <> None in
    match (Spec_trace.proc_name ev.action, Spec_trace.action_name ev.action, raised) with
    | "Acquire", _, _ -> set_obj "m" (Value.Thread self) st
    | "Release", _, _ -> set_obj "m" Value.Nil st
    | ("Wait" | "AlertWait" | "TimedWait"), "Enqueue", _ ->
      let c = arg_obj bindings "c" in
      let members = Value.as_set (State.get st c) in
      let st = State.set st c (Value.Set (Tid.Set.add self members)) in
      set_obj "m" Value.Nil st
    | "Wait", "Resume", _ -> set_obj "m" (Value.Thread self) st
    | "TimedWait", "TimedResume", false ->
      set_obj "m" (Value.Thread self) st
    | "TimedWait", "TimedResume", true ->
      let c = arg_obj bindings "c" in
      let members = Value.as_set (State.get st c) in
      let st = State.set st c (Value.Set (Tid.Set.remove self members)) in
      set_obj "m" (Value.Thread self) st
    | "AlertWait", "AlertResume", false ->
      set_obj "m" (Value.Thread self) st
    | "AlertWait", "AlertResume", true ->
      let c = arg_obj bindings "c" in
      let members = Value.as_set (State.get st c) in
      let st = State.set st c (Value.Set (Tid.Set.remove self members)) in
      let st = set_obj "m" (Value.Thread self) st in
      alerts_del st
    | ("Signal" | "Broadcast"), _, _ ->
      let c = arg_obj bindings "c" in
      let members = Value.as_set (State.get st c) in
      let members =
        List.fold_left (fun acc t -> Tid.Set.remove t acc) members
          (Spec_trace.removed ev.action)
      in
      State.set st c (Value.Set members)
    | "P", _, _ -> set_obj "s" (Value.Sem Value.Unavailable) st
    | "V", _, _ -> set_obj "s" (Value.Sem Value.Available) st
    | "Alert", _, _ ->
      let target = arg_thread bindings "t" in
      State.set_alerts st (Tid.Set.add target (State.alerts st))
    | "TestAlert", _, _ -> alerts_del st
    | "AlertP", _, false ->
      set_obj "s" (Value.Sem Value.Unavailable) st
    | "AlertP", _, true -> alerts_del st
    | "TimedP", _, false -> set_obj "s" (Value.Sem Value.Unavailable) st
    | "TimedP", _, true -> st
    | proc, action, _ ->
      failwith (Printf.sprintf "unknown event %s.%s" proc action)

  let check ?(observe = fun _ _ ~self:_ ~bindings:_ ~pre:_ ~post:_ ~outcome:_
                         ~result:_ -> ()) iface trace =
    let ctx =
      {
        iface;
        state = State.empty;
        objs = Hashtbl.create 16;
        in_progress = Hashtbl.create 16;
        errors = [];
        requires_violations = [];
      }
    in
    let count = ref 0 in
    List.iteri
      (fun index (ev : Spec_trace.event) ->
        incr count;
        let ev_proc = Spec_trace.proc_name ev.action
        and ev_action = Spec_trace.action_name ev.action in
        let fail message = ctx.errors <- { index; event = ev; message } :: ctx.errors in
        match Proc.find_proc iface ev_proc with
        | exception Not_found -> fail "no such procedure in the interface"
        | proc -> (
          match bindings_of ctx proc ev with
          | exception Failure message -> fail message
          | bindings -> (
          (* Composition sequencing per thread. *)
          let action_or_error =
            match Hashtbl.find_opt ctx.in_progress ev.self with
            | Some (pname, next :: rest) ->
              if pname <> ev_proc then
                Error
                  (Printf.sprintf
                     "thread is mid-%s but emitted a %s event" pname ev_proc)
              else if next.Proc.a_name <> ev_action then
                Error
                  (Printf.sprintf "expected action %s of %s, got %s"
                     next.Proc.a_name pname ev_action)
              else begin
                (if rest = [] then Hashtbl.remove ctx.in_progress ev.self
                 else Hashtbl.replace ctx.in_progress ev.self (pname, rest));
                Ok next
              end
            | Some (_, []) -> assert false
            | None -> (
              let actions = Proc.actions proc in
              match actions with
              | [] -> Error "procedure with no actions"
              | first :: rest ->
                if first.Proc.a_name <> ev_action then
                  Error
                    (Printf.sprintf
                       "expected first action %s of %s, got %s"
                       first.Proc.a_name ev_proc ev_action)
                else begin
                  (* REQUIRES is the caller's obligation at the first
                     action. *)
                  if
                    not
                      (Semantics.requires_holds proc ~self:ev.self ~bindings
                         ctx.state)
                  then
                    ctx.requires_violations <-
                      { index; event = ev; message = "REQUIRES violated by caller" }
                      :: ctx.requires_violations;
                  if rest <> [] then
                    Hashtbl.replace ctx.in_progress ev.self (ev_proc, rest);
                  Ok first
                end)
          in
          match action_or_error with
          | Error message -> fail message
          | Ok action -> (
            let pre = ctx.state in
            match post_of ctx bindings ev with
            | exception Failure message -> fail message
            | post -> (
              let outcome =
                match Spec_trace.raises ev.action with
                | None -> Proc.Returns
                | Some e -> Proc.Raises e
              in
              let result =
                Option.map (fun b -> Value.Bool b) (Spec_trace.result ev.action)
              in
              ctx.state <- post;
              observe proc action ~self:ev.self ~bindings ~pre ~post ~outcome
                ~result;
              match
                Semantics.check_transition iface proc action ~self:ev.self
                  ~bindings ~pre ~post ~outcome ~result
              with
              | Ok _case -> ()
              | Error message -> fail message)))))
      trace;
    {
      events = !count;
      errors = List.rev ctx.errors;
      requires_violations = List.rev ctx.requires_violations;
    }
end
