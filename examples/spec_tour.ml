(* A tour of the specification framework itself: parse the concrete
   syntax, pretty-print it back, evaluate clauses, enumerate the
   transitions the spec allows, and model-check a historical bug.

     dune exec examples/spec_tour.exe *)

open Spec_core
module Tid = Threads_util.Tid

let () =
  (* 1. The shipped interface text parses to the built-in AST. *)
  let iface = Parser.interface_of_string Threads_interface.source in
  assert (Proc.equal_interface iface Threads_interface.final);
  Printf.printf "parsed INTERFACE %s: %d types, %d procedures, well-formed: %b\n"
    iface.Proc.i_name
    (List.length iface.Proc.i_types)
    (List.length iface.Proc.i_procs)
    (Proc.well_formed iface = []);

  (* 2. Print one procedure back in the concrete syntax. *)
  let wait = Proc.find_proc iface "Wait" in
  Format.printf "@\n%a@\n@\n" (Printer.pp_proc iface) wait;

  (* 3. Evaluate clauses directly: build a state where t1 holds m and t2
     is enqueued on c, and ask questions of it. *)
  let m = Spec_obj.create "m" Sort.Thread in
  let c = Spec_obj.create "c" Sort.Thread_set in
  let st =
    State.empty
    |> State.add m (Value.Thread 1)
    |> State.add c (Value.Set (Tid.Set.singleton 2))
  in
  let compiled = Semantics.compile iface in
  let bindings = [ Term.Obj m; Term.Obj c ] in
  let wait = Semantics.find compiled "Wait" in
  (* Resume is Wait's action 1. *)
  let enabled_for self =
    Semantics.enabled (Semantics.call wait bindings st) ~self 1 st <> []
  in
  Printf.printf "Resume enabled for t2 while t1 holds m: %b\n" (enabled_for 2);
  let st' = State.set st m Value.Nil in
  let enabled_for' self =
    Semantics.enabled (Semantics.call wait bindings st') ~self 1 st' <> []
  in
  Printf.printf "Resume enabled for t2 once m = NIL: %b (and t2 IN c blocks... %b)\n"
    (enabled_for' 2)
    (not (enabled_for' 2));
  (* t2 is still in c, so WHEN (m = NIL) & ~(SELF IN c) is false; a Signal
     must remove it first.  Enumerate what Signal may do: *)
  let signal = Semantics.find compiled "Signal" in
  let outs =
    Semantics.outcomes (Semantics.call signal [ Term.Obj c ] st') ~self:3 0 st'
  in
  Printf.printf "Signal(c) with c = {t2} admits %d outcomes:\n"
    (List.length outs);
  List.iter
    (fun (o : Semantics.outcome) ->
      Format.printf "  c_post = %a@." Value.pp (State.get o.o_post c))
    outs;

  (* 4. Model-check Nelson's bug in one call. *)
  let module C = Threads_model.Checker in
  let scen =
    Threads_model.Program.make ~name:"nelson"
      ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
      ~programs:
        [
          [
            Threads_model.Program.call "Acquire" [ Aobj "m" ];
            Threads_model.Program.call "AlertWait" [ Aobj "m"; Aobj "c" ];
            Threads_model.Program.call "Release" [ Aobj "m" ];
          ];
          [ Threads_model.Program.call "Alert" [ Athread 0 ] ];
        ]
      ~invariants:
        [ Threads_model.Program.no_stale_waiters ~c:"c" ~waits:[ (0, 1) ] ]
      ~allow_deadlock:true ()
  in
  Format.printf "@\nfinal spec:  %a@\n" C.pp_result
    (C.run Threads_interface.final scen);
  Format.printf "nelson bug:  %a@\n" C.pp_result
    (C.run Threads_interface.nelson_bug scen)
