(* Soundness cross-check of the static abstraction against dynamic DPOR
   exploration.

   [repro explore] exhaustively interleaves five implementation-level
   scenarios and reports a canonical violation set per scenario.  This
   module computes, for each of those scenarios, the violation classes
   the *static* abstraction can reach — by abstract model checking of a
   spec-level counterpart program, by whole-program lock analysis, or by
   a spec-conformance judgement — and checks the soundness inclusion:

       every dynamically observed violation class must be statically
       reachable (dynamic ⊆ static).

   The dynamic side is given per scenario: the explore scenarios' own
   expectation sets, or violations parsed from an actual
   [repro explore --format=json] run. *)

open Spec_core
module Program = Threads_model.Program

type entry = {
  x_scenario : string;
  x_dynamic : string list;  (* dynamic violation strings *)
  x_dynamic_classes : string list;
  x_static_classes : string list;
  x_ok : bool;  (* dynamic classes ⊆ static classes *)
}

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* Canonical class of a dynamic violation string. *)
let classify s =
  if contains s "deadlock" then "deadlock"
  else if contains s "admitted by no case" then "spec-conformance"
  else if contains s "invariant" then "invariant"
  else "violation"

(* The spec-level counterpart of the naive-broadcast scenario (E5): a
   condition variable encoded as a semaphore that starts unavailable;
   the broadcaster Vs once while two waiters sit in the Release/P
   window, so one waiter is stranded — the abstract engine reaches the
   deadlock exhaustively. *)
let naive_broadcast_counterpart =
  let call = Program.call in
  let obj n = Program.Aobj n in
  let waiter =
    [
      call "Acquire" [ obj "m" ]; call "Release" [ obj "m" ];
      call "P" [ obj "sem" ]; call "Acquire" [ obj "m" ];
      call "Release" [ obj "m" ];
    ]
  in
  Program.make ~name:"naive-broadcast-static"
    ~objects:[ ("m", Sort.Thread); ("sem", Sort.Semaphore) ]
    ~programs:
      [
        waiter; waiter;
        [
          call "Acquire" [ obj "m" ]; call "Release" [ obj "m" ];
          call "V" [ obj "sem" ];
        ];
      ]
    ~initials:[ ("sem", Value.Sem Value.Unavailable) ]
    ()

(* The spec-level counterpart of two disjoint mutex pairs. *)
let disjoint_locks_counterpart =
  let call = Program.call in
  let obj n = Program.Aobj n in
  let worker m = [ call "Acquire" [ obj m ]; call "Release" [ obj m ] ] in
  Program.make ~name:"disjoint-locks-static"
    ~objects:[ ("ma", Sort.Thread); ("mb", Sort.Thread) ]
    ~programs:[ worker "ma"; worker "ma"; worker "mb"; worker "mb" ]
    ()

let engine_classes iface sc =
  let r = Engine.run iface sc in
  List.sort_uniq compare
    (List.map (fun f -> f.Finding.cls) r.Engine.r_findings)

(* The Hoare hand-off judgement (E8): the waiter's Resume fires while
   the signaller still owns the abstract mutex, transferring ownership
   directly.  The specification must reject the transition — if
   [check_transition] admitted it, Hoare signalling would conform and
   the dynamic spec-conformance violation would be statically
   unreachable. *)
let hoare_handoff_classes iface =
  let m = Spec_obj.make ~oid:1 "m" Sort.Thread in
  let c = Spec_obj.make ~oid:2 "c" Sort.Thread_set in
  let waiter = 1 and signaller = 2 in
  let pre =
    State.add m (Value.Thread signaller)
      (State.add c (Value.Set Threads_util.Tid.Set.empty) State.empty)
  in
  let post =
    State.add m (Value.Thread waiter)
      (State.add c (Value.Set Threads_util.Tid.Set.empty) State.empty)
  in
  let wait = Semantics.find (Semantics.compile iface) "Wait" in
  let resume =
    Option.get
      (List.find_index
         (fun (a : Proc.action) -> a.Proc.a_name = "Resume")
         (Proc.actions (Semantics.spec wait)))
  in
  let call = Semantics.call wait [ Term.Obj m; Term.Obj c ] pre in
  match
    Semantics.check_transition call ~self:waiter resume ~pre ~post
      ~outcome:Proc.Returns ~result:None
  with
  | Ok _ -> []  (* hand-off admitted: the defect is NOT statically visible *)
  | Error _ -> [ "spec-conformance" ]

let static_classes iface = function
  | "wakeup-waiting" -> engine_classes iface Suite.wait_signal
  | "alert-cancel" -> engine_classes iface Suite.alert_wait
  | "naive-broadcast" -> engine_classes iface naive_broadcast_counterpart
  | "hoare-signal" -> hoare_handoff_classes iface
  | "disjoint-locks" ->
    let rep = Progcheck.check iface disjoint_locks_counterpart in
    List.sort_uniq compare
      (List.map (fun f -> f.Finding.cls) rep.Progcheck.p_findings)
    @ engine_classes iface disjoint_locks_counterpart
  | name -> failwith ("Crossval: unknown explore scenario " ^ name)

(* [run iface dynamic] — one entry per explore scenario of [dynamic],
   which maps its name to the violation set exploration produces. *)
let run iface dynamic =
  List.map
    (fun (name, dyn) ->
      let dyn_classes = List.sort_uniq compare (List.map classify dyn) in
      let static = static_classes iface name in
      {
        x_scenario = name;
        x_dynamic = dyn;
        x_dynamic_classes = dyn_classes;
        x_static_classes = static;
        x_ok = List.for_all (fun c -> List.mem c static) dyn_classes;
      })
    dynamic
