module P = Spec_core.Proc
module V = Spec_core.Value
module Sem = Spec_core.Semantics
module Tid = Threads_util.Tid

(* Static linter over interface specifications.  Beyond the parser's
   well-formedness rules (re-reported here) it model-checks each clause
   against a small-state universe — two threads, every sort's value pool —
   which is exhaustive for the term language the Threads interface uses:

   - a WHEN guard that no enumerated pre state satisfies (conjoined with
     REQUIRES for an atomic action or a composition's first action, whose
     callers must establish REQUIRES) is a dead case;
   - an ENSURES that admits no post state from any enabling pre state is
     an unimplementable case;
   - a MODIFIES name never constrained by any ENSURES is suspicious —
     the spec allows the object to change arbitrarily (warning). *)

type severity = Error | Warning

type kind =
  | Well_formed
  | Dead_case
  | Unimplementable_case
  | Unconstrained_modifies
  | Eval_failure

let kind_name = function
  | Well_formed -> "well-formedness"
  | Dead_case -> "dead-case"
  | Unimplementable_case -> "unimplementable-case"
  | Unconstrained_modifies -> "unconstrained-modifies"
  | Eval_failure -> "eval-failure"

type finding = {
  f_severity : severity;
  f_kind : kind;
  f_proc : string;
  f_msg : string;
  f_pos : Spec_core.Lexer.pos option;
}

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
  let add sev kind ?pos msg =
    findings :=
      { f_severity = sev; f_kind = kind; f_proc = p.P.p_name; f_msg = msg;
        f_pos = pos }
      :: !findings
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
               add Error Dead_case ?pos:(case_pos act ci)
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
               add Error Unimplementable_case ?pos:(case_pos act ci)
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
           add Warning Unconstrained_modifies ?pos:proc_pos
             (Printf.sprintf
                "MODIFIES lists %s but no ENSURES constrains %s_post — the \
                 object may change arbitrarily"
                name name))
       p.P.p_modifies
   with Spec_core.Term.Eval_error msg ->
     add Error Eval_failure ?pos:proc_pos
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
        { f_severity = Error; f_kind = Well_formed; f_proc = iface.P.i_name;
          f_msg = msg; f_pos = pos })
      (P.well_formed iface)
  in
  (* Clause checks assume well-formedness; skip them when it fails. *)
  if wf <> [] then wf
  else List.concat_map (lint_proc ~locs iface) iface.P.i_procs

let errors fs = List.filter (fun f -> f.f_severity = Error) fs

let pp_finding ppf f =
  (match f.f_pos with
  | Some p -> Format.fprintf ppf "%a: " Spec_core.Lexer.pp_pos p
  | None -> ());
  Format.fprintf ppf "%s: %s: %s"
    (match f.f_severity with Error -> "error" | Warning -> "warning")
    f.f_proc f.f_msg
