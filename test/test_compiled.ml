(* The compiled evaluator against the interpreter it replaced
   ([Spec_reference]): byte-equal verdicts on every transition of the
   conform traces and of generated programs, and byte-equal outcome lists
   and REQUIRES verdicts at every state the spec model checker visits,
   under every historical variant and every spec mutant — evaluation
   errors included. *)

open Spec_core
module Ref = Spec_reference
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module P = Threads_model.Program
module SC = Threads_staticcheck

(* A result or the evaluation error it raised, as a comparable string. *)
let attempt show f =
  match f () with
  | v -> "ok " ^ show v
  | exception Term.Eval_error m -> "eval error " ^ m
  | exception Invalid_argument m -> "invalid argument " ^ m

let show_verdict = function Ok i -> Printf.sprintf "case %d" i | Error m -> m

let show_outcome case outcome post result =
  Format.asprintf "%d %a %a %s" case Proc.pp_outcome outcome State.pp post
    (match result with Some v -> Value.to_string v | None -> "-")

let show_outcomes os =
  String.concat "; "
    (List.map
       (fun (o : Semantics.outcome) ->
         show_outcome o.o_case o.o_outcome o.o_post o.o_result)
       os)

let show_reference_outcomes os =
  String.concat "; "
    (List.map
       (fun (o : Ref.Semantics.outcome) ->
         show_outcome o.o_case o.o_outcome o.o_post o.o_result)
       os)

let action_index (proc : Proc.t) (action : Proc.action) =
  Option.get (List.find_index (( == ) action) (Proc.actions proc))

let call iface (proc : Proc.t) bindings layout =
  Semantics.call
    (Semantics.find (Semantics.compile iface) proc.p_name)
    (List.map snd bindings) layout

(* ---- transitions of traces ---- *)

let show_report (r : Ref.Conformance.report) =
  let show (e : Ref.Conformance.error) = Printf.sprintf "[%d] %s" e.index e.message in
  String.concat "\n"
    (string_of_int r.events
    :: List.map show r.errors
    @ List.map show r.requires_violations)

let show_new_report (r : Threads_model.Conformance.report) =
  let show (e : Threads_model.Conformance.error) =
    Printf.sprintf "[%d] %s" e.index e.message
  in
  String.concat "\n"
    (string_of_int r.events
    :: List.map show r.errors
    @ List.map show r.requires_violations)

(* Replays [trace] through the reference and, at each transition, checks
   it with both evaluators; then compares the two replays' reports. *)
let check_trace what iface trace =
  let transitions = ref 0 in
  let observe proc action ~self ~bindings ~pre ~post ~outcome ~result =
    incr transitions;
    let reference =
      attempt show_verdict (fun () ->
          Ref.Semantics.check_transition iface proc action ~self ~bindings ~pre
            ~post ~outcome ~result)
    in
    let compiled =
      attempt show_verdict (fun () ->
          Semantics.check_transition (call iface proc bindings pre) ~self
            (action_index proc action) ~pre ~post ~outcome ~result)
    in
    Alcotest.(check string) (what ^ ": check_transition") reference compiled
  in
  let reference = Ref.Conformance.check ~observe iface trace in
  Alcotest.(check string) (what ^ ": report") (show_report reference)
    (show_new_report (Threads_model.Conformance.check iface trace));
  !transitions

let test_conform_traces () =
  let transitions = ref 0 and errors = ref 0 in
  List.iter
    (fun name ->
      let b = Option.get (Bk.find name) in
      List.iter
        (fun (w : Wl.t) ->
          if Bk.supports b w then
            for seed = 0 to 9 do
              let o = b.Bk.run ~seed w in
              let what = Printf.sprintf "%s/%s/%d" name w.Wl.name seed in
              transitions :=
                !transitions + check_trace what Threads_interface.final o.Bk.trace;
              errors :=
                !errors
                + List.length
                    (Threads_model.Conformance.check Threads_interface.final
                       o.Bk.trace)
                    .errors
            done)
        Wl.all)
    [ "sim"; "uniproc"; "naive"; "hoare" ];
  Alcotest.(check bool) "traces checked" true (!transitions > 10_000);
  Alcotest.(check bool) "the Error paths are covered" true (!errors > 0)

let test_generated_programs () =
  let module C = Threads_gen.Campaign in
  let sim = Option.get (Bk.find "sim") in
  let config =
    { C.policy = Threads_gen.Generate.Safe; runs = 200; seed = 7; chaos = false;
      shrink = false }
  in
  for i = 0 to config.C.runs - 1 do
    let s = C.scenario_of_cell config sim i in
    let o =
      sim.Bk.run ~seed:s.Threads_gen.Oracle.seed
        (Threads_gen.Prog.to_workload ~name:"gen" s.Threads_gen.Oracle.program)
    in
    ignore
      (check_trace (Printf.sprintf "generated %d" i) Threads_interface.final
         o.Bk.trace)
  done

(* ---- outcomes at the states the checker visits ---- *)

(* Acquire's WHEN made ill-formed two ways: the clauses must raise the
   interpreter's errors at the interpreter's points. *)
let ill_formed =
  let acquire_when w =
    { Threads_interface.final with
      Proc.i_procs =
        List.map
          (fun (p : Proc.t) ->
            match p.p_kind with
            | Proc.Atomic a when p.p_name = "Acquire" ->
              let a_cases = List.map (fun c -> { c with Proc.c_when = w }) a.a_cases in
              { p with p_kind = Proc.Atomic { a with a_cases } }
            | _ -> p)
          Threads_interface.final.i_procs }
  in
  let nil name stage = Formula.Eq (Term.Ref (name, stage), Term.Nil_const) in
  [ ("when-post", acquire_when (nil "m" Term.Post));
    ("when-unbound", acquire_when (nil "zz" Term.Pre)) ]

(* The distinct (state, phases) nodes an exploration of [iface] visits
   and expands or finds stuck. *)
let visited iface program =
  let nodes = Hashtbl.create 256 in
  let see (v : P.view) =
    let key = Format.asprintf "%a|%s" State.pp v.state
        (String.concat ","
           (Array.to_list
              (Array.map
                 (function
                   | P.Idle s -> Printf.sprintf "I%d" s
                   | P.Mid (s, k) -> Printf.sprintf "M%d.%d" s k
                   | P.Done -> "D")
                 v.phases)))
    in
    Hashtbl.replace nodes key v
  in
  ignore
    (Threads_model.Checker.explore ~max_states:100_000 iface program
       { Threads_model.Checker.root = ();
         key = (fun _ () -> ());
         stop = (fun () -> false);
         report = (fun () _ _ -> ());
         transition = (fun v () _ _ _ _ -> see v);
         stuck = (fun v () _ -> see v) });
  Hashtbl.fold (fun _ v acc -> v :: acc) nodes []

let eval_errors = ref 0

let compare_at iface (program : P.t) (v : P.view) =
  Array.iteri
    (fun i phase ->
      let pending =
        match phase with
        | P.Idle s when s < List.length program.programs.(i) -> Some (s, 0)
        | P.Mid (s, k) -> Some (s, k)
        | P.Idle _ | P.Done -> None
      in
      match pending with
      | None -> ()
      | Some (s, k) ->
        let step = List.nth program.programs.(i) s in
        let proc = Proc.find_proc iface step.P.proc in
        let action = List.nth (Proc.actions proc) k in
        let self = P.tid_of i in
        let bindings =
          Ref.Semantics.bindings_of_args iface proc
            (List.map
               (function
                 | P.Aobj name -> `Obj (List.assoc name v.objects)
                 | P.Athread j -> `Val (Value.Thread (P.tid_of j)))
               step.args)
        in
        let c = call iface proc bindings v.state in
        let what = Printf.sprintf "t%d %s.%s" self step.proc action.a_name in
        let reference =
          attempt show_reference_outcomes (fun () ->
              Ref.Semantics.outcomes iface proc action ~self ~bindings v.state)
        in
        if String.starts_with ~prefix:"eval error" reference then incr eval_errors;
        Alcotest.(check string) (what ^ ": outcomes") reference
          (attempt show_outcomes (fun () -> Semantics.outcomes c ~self k v.state));
        Alcotest.(check string) (what ^ ": requires")
          (attempt string_of_bool (fun () ->
               Ref.Semantics.requires_holds proc ~self ~bindings v.state))
          (attempt string_of_bool (fun () -> Semantics.requires_holds c ~self v.state)))
    v.phases

let test_checker_states () =
  let program = SC.Suite.wait_signal in
  let final = visited Threads_interface.final program in
  List.iter
    (fun (_, iface) ->
      (* An interface whose clauses raise is compared at the states the
         pristine interface visits. *)
      let nodes = try visited iface program with Term.Eval_error _ -> final in
      List.iter (compare_at iface program) nodes)
    (Threads_interface.variants
    @ List.map
        (fun m -> (m.SC.Spec_mutants.m_name, m.m_iface))
        (SC.Spec_mutants.all ())
    @ ill_formed);
  Alcotest.(check bool) "evaluation errors compared" true (!eval_errors > 0)

let suite =
  ( "compiled evaluator",
    [
      Alcotest.test_case "conform traces: same verdicts" `Quick
        test_conform_traces;
      Alcotest.test_case "generated programs: same verdicts" `Quick
        test_generated_programs;
      Alcotest.test_case "checker states: same outcomes" `Quick
        test_checker_states;
    ] )
