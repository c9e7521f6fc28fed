module P = Spec_core.Proc
module V = Spec_core.Value
module Sem = Spec_core.Semantics
module Tid = Threads_util.Tid

(* Static linter over interface specifications, the clause-level pass of
   the static verifier.  Beyond the parser's well-formedness rules
   (re-reported here, class [well-formedness]) it model-checks each
   clause against a small-state universe — two threads, every sort's
   value pool — which is exhaustive for the term language the Threads
   interface uses:

   - a WHEN guard that no enumerated pre state satisfies (conjoined with
     REQUIRES for an atomic action or a composition's first action, whose
     callers must establish REQUIRES) is a dead case ([dead-case]);
   - an ENSURES that admits no post state from any enabling pre state is
     an unimplementable case ([unimplementable-case]);
   - a MODIFIES name never constrained by any ENSURES is suspicious —
     the spec allows the object to change arbitrarily (a warning,
     [unconstrained-modifies]);
   - a clause whose evaluation raises is an [eval-failure].

   Findings carry the source position when a location table from the
   parser is supplied. *)

let self : Tid.t = 1
let other : Tid.t = 2

let pool : Spec_core.Sort.t -> V.t list = function
  | Thread -> [ V.Nil; V.Thread self; V.Thread other ]
  | Bool -> [ V.Bool false; V.Bool true ]
  | Int -> [ V.Int 0; V.Int 1 ]
  | Thread_set ->
    [
      V.Set Tid.Set.empty;
      V.Set (Tid.Set.singleton self);
      V.Set (Tid.Set.singleton other);
      V.Set (Tid.Set.of_int_list [ self; other ]);
    ]
  | Semaphore -> [ V.Sem V.Available; V.Sem V.Unavailable ]

(* By-value Thread arguments name an actual thread, not NIL. *)
let arg_pool sort =
  match sort with
  | Spec_core.Sort.Thread -> [ V.Thread self; V.Thread other ]
  | _ -> pool sort

let alerts_pool =
  [
    Tid.Set.empty;
    Tid.Set.singleton self;
    Tid.Set.singleton other;
    Tid.Set.of_int_list [ self; other ];
  ]

let product lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    lists [ [] ]

(* Every (call, pre-state) pair over the small universe: VAR formals
   become objects ranging over their sort's pool, by-value formals range
   over the argument pool, and [alerts] over all two-thread subsets.  Each
   call is [p], compiled once, applied to the bindings. *)
let enumerate iface (p : P.t) =
  let compiled = Sem.compile_proc p in
  let formals =
    List.mapi
      (fun i (f : P.formal) ->
        let sort = P.formal_sort iface p f.f_name in
        match f.f_mode with
        | P.By_var ->
          (* Positional id: linter output is independent of process
             history and of which domain ran the pass. *)
          let obj = Spec_core.Spec_obj.make ~oid:(i + 1) f.f_name sort in
          List.map
            (fun v ->
              (Spec_core.Term.Obj obj, fun st -> Spec_core.State.add obj v st))
            (pool sort)
        | P.By_value ->
          List.map
            (fun v -> (Spec_core.Term.Const v, fun st -> st))
            (arg_pool sort))
      p.P.p_formals
  in
  List.concat_map
    (fun choice ->
      let bindings = List.map fst choice in
      let base =
        List.fold_left (fun st (_, addf) -> addf st) Spec_core.State.empty
          choice
      in
      List.map
        (fun al ->
          let pre = Spec_core.State.set_alerts base al in
          (Sem.call compiled bindings pre, pre))
        alerts_pool)
    (product formals)

(* Whether a call of [p] can block: some action can find every WHEN
   guard false in a small-universe state (the first action only in
   states where REQUIRES holds — callers must establish it). *)
let may_delay iface (p : P.t) =
  let universe = enumerate iface p in
  let rec go ai = function
    | [] -> false
    | (_ : P.action) :: rest ->
      let gated = ai = 0 in
      List.exists
        (fun (call, pre) ->
          (not (gated && not (Sem.requires_holds call ~self pre)))
          && Sem.enabled call ~self ai pre = [])
        universe
      || go (ai + 1) rest
  in
  go 0 (P.actions p)

let outcome_str = function
  | P.Returns -> "RETURNS"
  | P.Raises e -> "RAISES " ^ e

let lint_proc ?(locs = Spec_core.Parser.no_locs) iface (p : P.t) =
  let findings = ref [] in
  let add ?severity cls ?pos msg =
    findings := Finding.make ?severity ?pos ~cls ~where:p.P.p_name msg :: !findings
  in
  let proc_pos = Spec_core.Parser.loc_proc locs p.P.p_name in
  let case_pos (act : P.action) ci =
    match
      Spec_core.Parser.loc_case locs ~proc:p.P.p_name ~action:act.P.a_name
        (ci + 1)
    with
    | Some _ as pos -> pos
    | None -> proc_pos
  in
  (try
     let universe = enumerate iface p in
     let actions = P.actions p in
     List.iteri
       (fun ai (act : P.action) ->
         (* REQUIRES gates the call, hence the first action's guard; later
            actions of a composition fire from any intermediate state. *)
         let gated = ai = 0 in
         let admitting = List.map (fun (call, pre) ->
             if gated && not (Sem.requires_holds call ~self pre) then (call, pre, [])
             else (call, pre, Sem.enabled call ~self ai pre))
             universe
         in
         List.iteri
           (fun ci (c : P.case) ->
             let where = List.filter (fun (_, _, en) -> List.mem ci en) admitting in
             if where = [] then
               add "dead-case" ?pos:(case_pos act ci)
                 (Printf.sprintf
                    "action %s, case %d (%s): WHEN guard%s is never \
                     satisfiable — dead case"
                    act.P.a_name (ci + 1)
                    (outcome_str c.P.c_outcome)
                    (if gated then " (under REQUIRES)" else ""))
             else if
               not
                 (List.exists
                    (fun (call, pre, _) ->
                      List.exists
                        (fun (o : Sem.outcome) -> o.o_case = ci)
                        (Sem.outcomes call ~self ai pre))
                    where)
             then
               add "unimplementable-case" ?pos:(case_pos act ci)
                 (Printf.sprintf
                    "action %s, case %d (%s): ENSURES admits no post state \
                     from any enabling pre state — unimplementable case"
                    act.P.a_name (ci + 1)
                    (outcome_str c.P.c_outcome)))
           act.P.a_cases)
       actions;
     let constrained =
       List.concat_map
         (fun (act : P.action) ->
           List.concat_map
             (fun (c : P.case) -> Spec_core.Formula.post_names c.P.c_ensures)
             act.P.a_cases)
         actions
     in
     List.iter
       (fun name ->
         if not (List.mem name constrained) then
           add ~severity:Finding.Warning "unconstrained-modifies" ?pos:proc_pos
             (Printf.sprintf
                "MODIFIES lists %s but no ENSURES constrains %s_post — the \
                 object may change arbitrarily"
                name name))
       p.P.p_modifies
   with Spec_core.Term.Eval_error msg ->
     add "eval-failure" ?pos:proc_pos
       (Printf.sprintf "evaluation error while checking: %s" msg));
  List.rev !findings

let lint ?(locs = Spec_core.Parser.no_locs) iface =
  let wf =
    List.map
      (fun msg ->
        (* well_formed prefixes each message with the offending
           procedure's name ("Proc: ..."); use it for the position. *)
        let pos =
          match String.index_opt msg ':' with
          | Some i -> Spec_core.Parser.loc_proc locs (String.sub msg 0 i)
          | None -> None
        in
        Finding.make ?pos ~cls:"well-formedness" ~where:iface.P.i_name msg)
      (P.well_formed iface)
  in
  (* Clause checks assume well-formedness; skip them when it fails. *)
  if wf <> [] then wf
  else List.concat_map (lint_proc ~locs iface) iface.P.i_procs
