(* Per-procedure effect summaries derived from the spec's clauses — not
   hand-written tables.  The whole-program analysis ([Progcheck]) needs,
   for every Thread-sorted VAR formal of every procedure:

   - whether REQUIRES forces the caller to hold it ([m = SELF]);
   - what the call does to it (acquires, releases, keeps, or unknown);
   - whether the call can block.

   All three are computed by quantifying the clauses over the linter's
   small-state universe, which is exhaustive for the interface's term
   language: e.g. Wait's summary (requires held, leaves held, may block)
   emerges from Enqueue's [m_post = NIL] composed with Resume's
   [m_post = SELF]. *)

open Spec_core
module P = Proc
module Sem = Semantics

type lockpost =
  | Held  (* every admitted transition leaves the object owned by SELF *)
  | Freed  (* ... leaves it NIL *)
  | Kept  (* ... leaves it unchanged *)
  | Unknown  (* admitted transitions disagree *)

let lockpost_name = function
  | Held -> "held"
  | Freed -> "freed"
  | Kept -> "kept"
  | Unknown -> "unknown"

type effect = {
  e_formal : string;
  e_requires_held : bool;
  e_post : lockpost;
  e_delays : bool;
}

(* Classification of one action's admitted transitions w.r.t. [obj]. *)
let classify_action ai ~gated obj universe =
  let self = 1 in
  let all_self = ref true and all_nil = ref true and all_same = ref true in
  let any = ref false in
  List.iter
    (fun (call, pre_state) ->
      if (not gated) || Sem.requires_holds call ~self pre_state then
        List.iter
          (fun (o : Sem.outcome) ->
            any := true;
            let before = State.get pre_state obj in
            let after = State.get o.Sem.o_post obj in
            if not (Value.equal after (Value.Thread self)) then
              all_self := false;
            if not (Value.equal after Value.Nil) then all_nil := false;
            if not (Value.equal after before) then all_same := false)
          (Sem.outcomes call ~self ai pre_state))
    universe;
  if not !any then Kept
  else if !all_same then Kept
  else if !all_self then Held
  else if !all_nil then Freed
  else Unknown

(* Sequential composition of ownership effects: a later action's Kept
   preserves whatever the earlier actions established. *)
let fold_post a b = match b with Kept -> a | _ -> b

let mutex_effects iface (p : P.t) =
  List.filter_map
    (fun (f : P.formal) ->
      match P.formal_sort iface p f.P.f_name with
      | Sort.Thread when f.P.f_mode = P.By_var ->
        let universe = Lint.enumerate iface p in
        let obj =
          (* the object [enumerate] bound to this formal, named after it;
             identical in every universe element *)
          List.find
            (fun (o : Spec_obj.t) -> o.name = f.P.f_name)
            (State.objects (snd (List.hd universe)))
        in
        let self = 1 in
        let requires_held =
          List.for_all
            (fun (call, pre_state) ->
              (not (Sem.requires_holds call ~self pre_state))
              || Value.equal (State.get pre_state obj) (Value.Thread self))
            universe
        in
        let post =
          List.fold_left
            (fun acc ai ->
              fold_post acc
                (classify_action ai ~gated:(ai = 0) obj universe))
            Kept
            (List.init (List.length (P.actions p)) Fun.id)
        in
        Some
          {
            e_formal = f.P.f_name;
            e_requires_held = requires_held;
            e_post = post;
            e_delays = Lint.may_delay iface p;
          }
      | _ -> None
      | exception Not_found -> None)
    p.P.p_formals
