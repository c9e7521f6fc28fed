(* Driver of the spec model checking pass.

   [check] composes the clause-level linter ({!Lint}) with the abstract
   engine over the verification suite:

   1. lint: well-formedness, dead cases, unimplementable cases,
      unconstrained MODIFIES — each a class of its own;
   2. if lint found no errors, every suite scenario is explored
      exhaustively, yielding mutex-theft / stale-waiter / exclusion /
      requires-violation / signal-loss / alert-loss / wakeup-window /
      deadlock findings;
   3. spec cases no scenario's exploration ever fired are reported as
      [unreachable-case].

   The pristine Threads interface produces zero findings; each of the
   {!Spec_mutants} corpus produces at least one, led by the mutant's
   expected class. *)

type model_report = {
  mr_scenario : string;
  mr_findings : Finding.t list;
  mr_states : int;
  mr_transitions : int;
  mr_skipped : bool;
}

type report = {
  rep_lint : Finding.t list;
  rep_model : model_report list;
  rep_uncovered : (string * string * int) list;
  rep_findings : Finding.t list;  (* all of the above, in report order *)
}

let check ?locs iface =
  let lint_findings = Lint.lint ?locs iface in
  let lint_has_errors = Finding.errors lint_findings <> [] in
  let covered = Hashtbl.create 64 in
  let ran_any = ref false in
  let model =
    if lint_has_errors then
      List.map
        (fun (sc : Threads_model.Program.t) ->
          {
            mr_scenario = sc.name;
            mr_findings = [];
            mr_states = 0;
            mr_transitions = 0;
            mr_skipped = true;
          })
        Suite.all
    else
      List.map
        (fun (sc : Threads_model.Program.t) ->
          if not (Suite.applicable iface sc) then
            {
              mr_scenario = sc.name;
              mr_findings = [];
              mr_states = 0;
              mr_transitions = 0;
              mr_skipped = true;
            }
          else
            match Engine.run iface sc with
            | r ->
              ran_any := true;
              List.iter
                (fun c -> Hashtbl.replace covered c ())
                r.Engine.r_covered;
              {
                mr_scenario = sc.name;
                mr_findings = r.Engine.r_findings;
                mr_states = r.Engine.r_states;
                mr_transitions = r.Engine.r_transitions;
                mr_skipped = false;
              }
            | exception e ->
              {
                mr_scenario = sc.name;
                mr_findings =
                  [
                    Finding.make ~cls:"engine-error"
                      ~where:sc.name (Printexc.to_string e);
                  ];
                mr_states = 0;
                mr_transitions = 0;
                mr_skipped = false;
              })
        Suite.all
  in
  let uncovered =
    if not !ran_any then []
    else
      List.filter
        (fun c -> not (Hashtbl.mem covered c))
        (Suite.all_cases iface)
  in
  let uncovered_findings =
    List.map
      (fun (p, a, ci) ->
        Finding.make ~cls:"unreachable-case" ~where:p
          (Printf.sprintf
             "case %d of action %s is fired by no interleaving of any \
              verification scenario"
             (ci + 1) a))
      uncovered
  in
  let findings =
    lint_findings
    @ List.concat_map (fun m -> m.mr_findings) model
    @ uncovered_findings
  in
  {
    rep_lint = lint_findings;
    rep_model = model;
    rep_uncovered = uncovered;
    rep_findings = findings;
  }

let primary rep =
  match rep.rep_findings with [] -> None | f :: _ -> Some f

(* ---- mutant self-test ---- *)

type mutant_result = {
  mu_name : string;
  mu_expected : string;
  mu_primary : string option;
  mu_classes : string list;  (* every class reported, deduplicated *)
  mu_caught : bool;
}

let check_mutant (m : Spec_mutants.t) =
  let rep = check m.Spec_mutants.m_iface in
  let primary_cls =
    match primary rep with None -> None | Some f -> Some f.Finding.cls
  in
  {
    mu_name = m.Spec_mutants.m_name;
    mu_expected = m.Spec_mutants.m_expected;
    mu_primary = primary_cls;
    mu_classes =
      List.sort_uniq compare
        (List.map (fun f -> f.Finding.cls) rep.rep_findings);
    mu_caught = primary_cls = Some m.Spec_mutants.m_expected;
  }

let check_mutants () = List.map check_mutant (Spec_mutants.all ())
