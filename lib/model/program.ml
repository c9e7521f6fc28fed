module Tid = Threads_util.Tid
open Spec_core

type arg = Aobj of string | Athread of int

type step = { proc : string; args : arg list }

let call proc args = { proc; args }

type phase = Idle of int | Mid of int * int | Done

type view = {
  state : State.t;
  phases : phase array;
  objects : (string * Spec_obj.t) list;
}

let value view name = State.get view.state (List.assoc name view.objects)

(* Spec thread ids: program i runs as thread i+1 (0 is never used, keeping
   ids distinct from NIL-ish defaults in debug output). *)
let tid_of i = i + 1

type invariant_class = Exclusion | Stale_waiter

let class_name = function
  | Exclusion -> "exclusion"
  | Stale_waiter -> "stale-waiter"

type invariant = invariant_class * (view -> string option)

type t = {
  name : string;
  objects : (string * Sort.t) list;
  programs : step list array;
  invariants : invariant list;
  allow_deadlock : bool;
  assert_delivery : bool;
  initials : (string * Value.t) list;
  interrupts : int list;
}

let make ~name ~objects ~programs ?(invariants = []) ?(allow_deadlock = false)
    ?(assert_delivery = false) ?(initials = []) ?(interrupts = []) () =
  { name; objects; programs = Array.of_list programs; invariants;
    allow_deadlock; assert_delivery; initials; interrupts }

let no_stale_waiters ~c ~waits =
  let check view =
    let members = Value.as_set (value view c) in
    let parked tid =
      (* tid = program index + 1 *)
      let i = tid - 1 in
      i >= 0 && i < Array.length view.phases
      &&
      match view.phases.(i) with
      | Mid (s, k) -> k >= 1 && List.mem (i, s) waits
      | Idle _ | Done -> false
    in
    match
      Tid.Set.elements (Tid.Set.filter (fun t -> not (parked t)) members)
    with
    | [] -> None
    | stale ->
      Some
        (Format.asprintf
           "condition %s contains %a which are not parked in any wait" c
           Tid.Set.pp (Tid.Set.of_list stale))
  in
  (Stale_waiter, check)

let mutual_exclusion ~regions =
  let occupied view (prog, first, last, wait_steps) =
    match view.phases.(prog) with
    | Done -> false
    | Idle s -> first < s && s <= last
    | Mid (s, k) ->
      first < s && s <= last && not (k >= 1 && List.mem s wait_steps)
  in
  let check view =
    let inside = List.filter (occupied view) regions in
    if List.length inside > 1 then
      Some
        (Format.asprintf "critical regions of programs %s occupied together"
           (String.concat ", "
              (List.map (fun (p, _, _, _) -> string_of_int p) inside)))
    else None
  in
  (Exclusion, check)
