module Bk = Threads_backend.Backend
module Cc = Threads_backend.Crosscheck
module Plan = Threads_fault.Plan
module Conformance = Threads_model.Conformance

type scenario = {
  program : Prog.t;
  policy : Generate.policy;
  seed : int;
  plan : Plan.t option;
}

type kind =
  | Violation of string
  | Stranded
  | Exhausted
  | Crashed of string
  | Unexplained

type classification = Pass of string | Fail of kind * string

let kind_name = function
  | Violation action -> "violation:" ^ action
  | Stranded -> "stranded"
  | Exhausted -> "exhausted"
  | Crashed _ -> "crashed"
  | Unexplained -> "unexplained"

let kind_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "violation"; action ] -> Some (Violation action)
  | [ "stranded" ] -> Some Stranded
  | [ "exhausted" ] -> Some Exhausted
  | [ "crashed" ] -> Some (Crashed "")
  | [ "unexplained" ] -> Some Unexplained
  | _ -> None

(* Crash payloads carry tids and exception texts that legitimately vary
   while shrinking; the crash itself is the invariant. *)
let same_kind a b =
  match (a, b) with
  | Violation x, Violation y -> x = y
  | Stranded, Stranded | Exhausted, Exhausted | Unexplained, Unexplained
  | Crashed _, Crashed _ -> true
  | _ -> false

let scenario_size s = Prog.size s.program

let scenario_weight s =
  Prog.weight s.program
  + match s.plan with None -> 0 | Some p -> Plan.weight p

let first_violation (report : Conformance.report) =
  match report.Conformance.errors with
  | [] -> None
  | e :: _ ->
    let action = Spec_trace.action_name e.Conformance.event.action in
    Some
      ( action,
        Printf.sprintf "event %d (%s): %s" e.Conformance.index action
          e.Conformance.message )

let workload s = Prog.to_workload ~name:"gen" s.program

let run (backend : Bk.t) s =
  let wl = workload s in
  if not (Bk.supports backend wl) then
    invalid_arg
      (Printf.sprintf "oracle: backend %s lacks a feature program needs"
         backend.Bk.name);
  match s.plan with
  | None -> (
    let cell, _ = Cc.run_one backend wl ~seed:s.seed in
    match first_violation cell.Cc.report with
    | Some (action, detail) -> Fail (Violation action, detail)
    | None -> (
      match cell.Cc.verdict with
      | Bk.Completed -> Pass "conformant"
      | Bk.Deadlocked ->
        if Generate.deadlock_is_failure s.policy then
          Fail (Stranded, "deadlock under a deadlock-free-by-construction policy")
        else Pass "deadlock (free policy)"
      | Bk.Crashed msg when msg = "step limit" ->
        if Generate.deadlock_is_failure s.policy then
          Fail (Exhausted, "step budget exhausted")
        else Pass "step budget (free policy)"
      | Bk.Crashed msg -> Fail (Crashed msg, msg)))
  | Some plan -> (
    let r = Cc.chaos_one backend wl ~seed:s.seed plan in
    match r.Cc.c_class with
    | Cc.Conformant -> Pass "conformant"
    | Cc.Diagnosed -> Pass "diagnosed"
    | Cc.Violation -> (
      match first_violation r.Cc.c_report with
      | Some (action, detail) -> Fail (Violation action, detail)
      | None -> Fail (Violation "?", "violation with empty error list"))
    | Cc.Unexplained ->
      Fail
        ( Unexplained,
          Format.asprintf "unexplained %a"
            (Threads_fault.Engine.pp_verdict
               r.Cc.c_outcome.Threads_fault.Engine.machine)
            r.Cc.c_outcome.Threads_fault.Engine.verdict ))
