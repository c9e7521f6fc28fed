(** E7 — the three historical specification incidents (Discussion).

    (a) The original AlertWait spec lacked "m = NIL &" in AlertResume's
    RAISES clause; "that this presented a problem was discovered in less
    than an hour by someone with no prior knowledge of either the
    interface or the specification technique".  Our model checker plays
    that newcomer: it finds a mutual-exclusion violation in milliseconds.

    (b) AlertP/AlertWait were originally constrained to raise Alerted when
    possible; "a programmer pointed out that the implementation was
    non-deterministic: sometimes it raised the exception and sometimes it
    didn't", and the spec was weakened.  We conformance-check real
    simulator traces against both versions: the must-raise variant rejects
    some runs; the final spec accepts all.

    (c) Nelson's bug: the spec "incorrectly required that when AlertWait
    raised the exception Alerted it left the value of c unchanged.  Thus c
    could contain threads that were no longer blocked on the condition
    variable" — so "no blocked thread is awakened by that Signal".  The
    checker violates exactly that invariant under the buggy variant. *)

module Table = Threads_util.Table
module C = Threads_model.Checker
open Spec_core

let check_variant scenario iface =
  let r = C.run iface scenario in
  ( (match r.C.violation with
    | None -> "conforms"
    | Some v ->
      (match v.kind with
      | `Invariant -> "INVARIANT VIOLATED"
      | `Deadlock -> "DEADLOCK"
      | `Requires -> "REQUIRES VIOLATED")),
    r )

let print_counterexample label (r : C.result) =
  match r.violation with
  | None -> ()
  | Some v ->
    Printf.printf "\n%s counterexample (%s):\n" label v.message;
    List.iter
      (fun e -> Format.printf "  %a@." C.pp_trace_entry e)
      v.trace

let run_a () =
  let t =
    Table.create ~title:"E7a: AlertResume without the m = NIL guard"
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "spec variant"; "verdict"; "states"; "transitions" ]
  in
  let scen = Scenarios.alert_wait_mutual_exclusion () in
  let rows =
    [ ("final", Threads_interface.final);
      ("missing-mutex-guard", Threads_interface.missing_mutex_guard) ]
  in
  let results =
    List.map
      (fun (name, iface) ->
        let verdict, r = check_variant scen iface in
        Table.add_row t
          [ name; verdict; Table.cell_int r.C.states;
            Table.cell_int r.C.transitions ];
        (name, r))
      rows
  in
  Table.print t;
  print_counterexample "E7a" (snd (List.nth results 1))

let run_b () =
  let seeds = 2000 in
  let rejected_by_must_raise = ref 0 in
  let rejected_by_final = ref 0 in
  for seed = 0 to seeds - 1 do
    let _, trace =
      Taos_threads.Api.run_traced ~seed (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC
               with type thread = Threads_util.Tid.t)
          in
          let m = S.mutex () in
          let c = S.condition () in
          let w =
            S.fork (fun () ->
                try S.with_lock m (fun () -> S.alert_wait m c)
                with Taos_threads.Sync_intf.Alerted -> ())
          in
          (* Race an Alert against a Signal so the wakened thread often has
             a pending alert it may or may not honour. *)
          let a = S.fork (fun () -> S.alert w) in
          let s = S.fork (fun () -> S.signal c) in
          S.join a;
          S.join s;
          S.signal c;
          (try S.join w with Taos_threads.Sync_intf.Alerted -> ());
          ignore (S.test_alert ()))
    in
    if
      not
        (Threads_model.Conformance.ok
           (Threads_model.Conformance.check Threads_interface.final trace))
    then incr rejected_by_final;
    if
      not
        (Threads_model.Conformance.ok
           (Threads_model.Conformance.check
              Threads_interface.must_raise trace))
    then incr rejected_by_must_raise
  done;
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E7b: conformance of %d implementation runs" seeds)
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "spec variant"; "runs rejected"; "fraction" ]
  in
  Table.add_row t
    [ "final (non-deterministic choice)";
      Table.cell_int !rejected_by_final;
      Table.cell_pct (float_of_int !rejected_by_final /. float_of_int seeds) ];
  Table.add_row t
    [ "must-raise (original)";
      Table.cell_int !rejected_by_must_raise;
      Table.cell_pct
        (float_of_int !rejected_by_must_raise /. float_of_int seeds) ];
  Table.print t

let run_c () =
  let t =
    Table.create ~title:"E7c: UNCHANGED [c] on the Alerted case (Nelson)"
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "spec variant"; "verdict"; "states"; "transitions" ]
  in
  let scen = Scenarios.nelson () in
  let rows =
    [ ("final", Threads_interface.final);
      ("nelson-bug", Threads_interface.nelson_bug) ]
  in
  let results =
    List.map
      (fun (name, iface) ->
        let verdict, r = check_variant scen iface in
        Table.add_row t
          [ name; verdict; Table.cell_int r.C.states;
            Table.cell_int r.C.transitions ];
        (name, r))
      rows
  in
  Table.print t;
  print_counterexample "E7c" (snd (List.nth results 1))

let run () =
  run_a ();
  run_b ();
  run_c ();
  print_endline
    "\nShape check: both spec bugs are found mechanically within a handful\n\
     of states; the must-raise variant is refuted by real traces while the\n\
     final spec accepts every run."

let experiment =
  {
    Exp.id = "E7";
    title = "The three specification incidents";
    claim =
      "Incidents from a year of use: the missing m = NIL guard (found in \
       under an hour), the legitimised non-determinism of AlertP/AlertWait, \
       and Nelson's UNCHANGED [c] bug (Discussion).";
    run;
  }
