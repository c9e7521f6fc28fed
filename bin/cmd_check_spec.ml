(* repro check-spec — the static spec verifier: lint, abstract model
   check and whole-program analysis, or its mutant and DPOR
   cross-checks. *)

open Cmdliner
module SC = Threads_staticcheck

let read_spec = function
  | None -> ("threads (builtin)", Spec_core.Threads_interface.source)
  | Some f ->
    ( f,
      Cli.read_file f ~fail:(fun e ->
          Printf.eprintf "cannot read %s: %s\n" f e;
          exit 1) )

let parse_spec name src =
  try Spec_core.Parser.interface_of_string_located src with
  | Spec_core.Parser.Parse_error (msg, p) ->
    Printf.eprintf "%s:%d:%d: parse error: %s\n" name p.Spec_core.Lexer.line
      p.Spec_core.Lexer.col msg;
    exit 1
  | Spec_core.Lexer.Lex_error (msg, p) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" name
      p.Spec_core.Lexer.line p.Spec_core.Lexer.col msg;
    exit 1

let sc_finding_json (f : SC.Finding.t) =
  Obs.Json.Obj
    [ ("class", Obs.Json.String f.SC.Finding.cls);
      ("severity",
       Obs.Json.String (SC.Finding.severity_name f.SC.Finding.severity));
      ("where", Obs.Json.String f.SC.Finding.where);
      ("msg", Obs.Json.String (SC.Finding.text f)) ]

(* The clause-level pass alone (check-spec --lint-only). *)
let lint_only name iface locs ~out =
  let findings = SC.Lint.lint ~locs iface in
  let errs = List.length (SC.Finding.errors findings) in
  Cli.write_out ~out
    (String.concat ""
       (List.map
          (fun (f : SC.Finding.t) ->
            Printf.sprintf "%s: %s%s: %s: %s\n" name (SC.Finding.pos_prefix f)
              (SC.Finding.severity_name f.SC.Finding.severity)
              f.SC.Finding.where f.SC.Finding.msg)
          findings)
    ^ Printf.sprintf "%s: %d procedure(s), %d error(s), %d warning(s)\n" name
        (List.length iface.Spec_core.Proc.i_procs)
        errs
        (List.length findings - errs));
  if errs > 0 then exit 1

let check_spec_mutants ~format ~out =
  let pristine = SC.Speccheck.check Spec_core.Threads_interface.final in
  let pristine_clean = pristine.SC.Speccheck.rep_findings = [] in
  let results = SC.Speccheck.check_mutants () in
  let missed =
    List.filter (fun r -> not r.SC.Speccheck.mu_caught) results
  in
  let emit, finish = Cli.make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "static");
              ("pristine_clean", Obs.Json.Bool pristine_clean);
              ( "mutants",
                Obs.Json.Arr
                  (List.map
                     (fun (r : SC.Speccheck.mutant_result) ->
                       Obs.Json.Obj
                         [ ("name", Obs.Json.String r.SC.Speccheck.mu_name);
                           ( "expected",
                             Obs.Json.String r.SC.Speccheck.mu_expected );
                           ( "primary",
                             match r.SC.Speccheck.mu_primary with
                             | Some c -> Obs.Json.String c
                             | None -> Obs.Json.Null );
                           ("caught", Obs.Json.Bool r.SC.Speccheck.mu_caught);
                           ( "classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  r.SC.Speccheck.mu_classes) ) ])
                     results) ) ])
      ^ "\n")
  | `Table ->
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Left;
            Threads_util.Table.Left; Threads_util.Table.Left ]
        ~title:"check-spec: seeded spec mutants"
        [ "mutant"; "expected class"; "primary class"; "verdict" ]
    in
    Threads_util.Table.add_row t
      [ "(pristine control)"; "no findings";
        (if pristine_clean then "no findings" else "FINDINGS");
        (if pristine_clean then "clean" else "DIRTY") ];
    List.iter
      (fun (r : SC.Speccheck.mutant_result) ->
        Threads_util.Table.add_row t
          [ r.SC.Speccheck.mu_name; r.SC.Speccheck.mu_expected;
            (match r.SC.Speccheck.mu_primary with
            | Some c -> c
            | None -> "(none)");
            (if r.SC.Speccheck.mu_caught then "caught" else "MISSED") ])
      results;
    emit (Threads_util.Table.render t);
    if pristine_clean && missed = [] then
      emit "all spec mutants caught with their expected class\n");
  finish ();
  if not pristine_clean then begin
    Printf.eprintf "FAIL: pristine spec produced findings\n";
    exit 1
  end;
  if missed <> [] then begin
    List.iter
      (fun (r : SC.Speccheck.mutant_result) ->
        Printf.eprintf "FAIL: mutant %s expected %s, primary %s\n"
          r.SC.Speccheck.mu_name r.SC.Speccheck.mu_expected
          (match r.SC.Speccheck.mu_primary with Some c -> c | None -> "none"))
      missed;
    exit 1
  end

(* Dynamic violation sets from a [repro explore --format=json] report. *)
let dynamic_of_explore_json file =
  let fail msg =
    Printf.eprintf "cannot use %s as explore report: %s\n" file msg;
    exit 1
  in
  match Obs.Json.of_string (Cli.read_file file ~fail) with
  | exception Obs.Json.Parse_error e -> fail e
  | j -> (
    match Obs.Json.find j "scenarios" with
    | Some (Obs.Json.Arr scenarios) ->
      List.filter_map
        (fun s ->
          match
            (Obs.Json.find s "scenario", Obs.Json.find s "violations")
          with
          | Some (Obs.Json.String name), Some (Obs.Json.Arr vs) ->
            Some
              ( name,
                List.filter_map
                  (function Obs.Json.String v -> Some v | _ -> None)
                  vs )
          | _ -> None)
        scenarios
    | _ -> fail "no scenarios array")

let check_spec_crosscheck ~dynamic_file ~format ~out =
  let expected =
    List.map
      (fun (s : Threads_harness.Explore_scenarios.t) -> (s.name, s.expect))
      Threads_harness.Explore_scenarios.all
  in
  let observed =
    if dynamic_file = "" then expected else dynamic_of_explore_json dynamic_file
  in
  let dynamic =
    List.map
      (fun (name, _) -> (name, Option.value (List.assoc_opt name observed) ~default:[]))
      expected
  in
  let entries = SC.Crossval.run Spec_core.Threads_interface.final dynamic in
  let bad = List.filter (fun e -> not e.SC.Crossval.x_ok) entries in
  let emit, finish = Cli.make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "static-crosscheck");
              ( "dynamic_source",
                Obs.Json.String
                  (if dynamic_file = "" then "pinned" else dynamic_file) );
              ( "scenarios",
                Obs.Json.Arr
                  (List.map
                     (fun (e : SC.Crossval.entry) ->
                       Obs.Json.Obj
                         [ ( "scenario",
                             Obs.Json.String e.SC.Crossval.x_scenario );
                           ( "dynamic_classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  e.SC.Crossval.x_dynamic_classes) );
                           ( "static_classes",
                             Obs.Json.Arr
                               (List.map
                                  (fun c -> Obs.Json.String c)
                                  e.SC.Crossval.x_static_classes) );
                           ("ok", Obs.Json.Bool e.SC.Crossval.x_ok) ])
                     entries) ) ])
      ^ "\n")
  | `Table ->
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Left;
            Threads_util.Table.Left; Threads_util.Table.Left ]
        ~title:
          (Printf.sprintf "check-spec: DPOR soundness cross-check (%s)"
             (if dynamic_file = "" then "pinned expectations"
              else dynamic_file))
        [ "scenario"; "dynamic classes"; "static classes"; "sound" ]
    in
    List.iter
      (fun (e : SC.Crossval.entry) ->
        Threads_util.Table.add_row t
          [ e.SC.Crossval.x_scenario;
            (match e.SC.Crossval.x_dynamic_classes with
            | [] -> "(none)"
            | cs -> String.concat ", " cs);
            (match e.SC.Crossval.x_static_classes with
            | [] -> "(none)"
            | cs -> String.concat ", " cs);
            (if e.SC.Crossval.x_ok then "yes" else "NO") ])
      entries;
    emit (Threads_util.Table.render t);
    if bad = [] then
      emit
        "every dynamically observed violation class is statically \
         reachable\n");
  finish ();
  if bad <> [] then begin
    List.iter
      (fun (e : SC.Crossval.entry) ->
        Printf.eprintf
          "FAIL: %s: dynamic violation class not statically reachable\n"
          e.SC.Crossval.x_scenario)
      bad;
    exit 1
  end

let check_spec_full name iface locs ~demos ~format ~out =
  let rep = SC.Speccheck.check ~locs iface in
  (* The whole-program pass evaluates the clauses, so it needs a spec the
     linter found no error in. *)
  let clean = SC.Finding.errors rep.SC.Speccheck.rep_lint = [] in
  let analyze scenarios =
    if clean then List.map (SC.Progcheck.check iface) scenarios else []
  in
  let prog_reports = analyze (Threads_harness.Scenarios.progcheck_catalogue ()) in
  let demo_reports = if demos then analyze SC.Progcheck.demo_scenarios else [] in
  let all_findings =
    rep.SC.Speccheck.rep_findings
    @ List.concat_map (fun r -> r.SC.Progcheck.p_findings) prog_reports
  in
  let errs = List.length (SC.Finding.errors all_findings) in
  let warns = List.length all_findings - errs in
  let emit, finish = Cli.make_emit out in
  let emit_findings fs =
    List.iter (fun f -> emit (Format.asprintf "  %a@." SC.Finding.pp f)) fs
  in
  (match format with
  | `Json ->
    let model_json m =
      Obs.Json.Obj
        [ ("scenario", Obs.Json.String m.SC.Speccheck.mr_scenario);
          ("skipped", Obs.Json.Bool m.SC.Speccheck.mr_skipped);
          ("states", Obs.Json.Int m.SC.Speccheck.mr_states);
          ("transitions", Obs.Json.Int m.SC.Speccheck.mr_transitions);
          ( "findings",
            Obs.Json.Arr
              (List.map sc_finding_json m.SC.Speccheck.mr_findings) ) ]
    in
    let prog_json (r : SC.Progcheck.report) =
      Obs.Json.Obj
        [ ("scenario", Obs.Json.String r.SC.Progcheck.p_scenario);
          ( "lock_order_edges",
            Obs.Json.Arr
              (List.map
                 (fun (a, b) ->
                   Obs.Json.Arr [ Obs.Json.String a; Obs.Json.String b ])
                 r.SC.Progcheck.p_edges) );
          ( "findings",
            Obs.Json.Arr (List.map sc_finding_json r.SC.Progcheck.p_findings)
          ) ]
    in
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            ([ ("schema_version", Obs.Json.Int 1);
               ("kind", Obs.Json.String "static");
               ("spec", Obs.Json.String name);
               ( "lint",
                 Obs.Json.Arr
                   (List.map sc_finding_json rep.SC.Speccheck.rep_lint) );
               ( "model",
                 Obs.Json.Arr (List.map model_json rep.SC.Speccheck.rep_model)
               );
               ( "uncovered",
                 Obs.Json.Arr
                   (List.map
                      (fun (p, a, ci) ->
                        Obs.Json.String (Printf.sprintf "%s.%s#%d" p a (ci + 1)))
                      rep.SC.Speccheck.rep_uncovered) );
               ("program", Obs.Json.Arr (List.map prog_json prog_reports)) ]
            @ (if demos then
                 [ ("demos", Obs.Json.Arr (List.map prog_json demo_reports)) ]
               else [])
            @ [ ("errors", Obs.Json.Int errs);
                ("warnings", Obs.Json.Int warns) ]))
      ^ "\n")
  | `Table ->
    emit (Printf.sprintf "check-spec: %s\n" name);
    emit_findings rep.SC.Speccheck.rep_lint;
    let t =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Right;
            Threads_util.Table.Right; Threads_util.Table.Right ]
        ~title:"spec model checking (abstract exploration)"
        [ "scenario"; "states"; "transitions"; "findings" ]
    in
    List.iter
      (fun m ->
        Threads_util.Table.add_row t
          [ m.SC.Speccheck.mr_scenario;
            (if m.SC.Speccheck.mr_skipped then "-"
             else string_of_int m.SC.Speccheck.mr_states);
            (if m.SC.Speccheck.mr_skipped then "-"
             else string_of_int m.SC.Speccheck.mr_transitions);
            string_of_int (List.length m.SC.Speccheck.mr_findings) ])
      rep.SC.Speccheck.rep_model;
    emit (Threads_util.Table.render t);
    List.iter
      (fun m -> emit_findings m.SC.Speccheck.mr_findings)
      rep.SC.Speccheck.rep_model;
    List.iter
      (fun (p, a, ci) ->
        emit (Printf.sprintf "  unreachable: case %d of %s.%s\n" (ci + 1) p a))
      rep.SC.Speccheck.rep_uncovered;
    if not clean then
      Printf.eprintf "%s: the spec has clause errors; whole-program \
                      analysis skipped\n" name
    else begin
    let pt =
      Threads_util.Table.create
        ~aligns:
          [ Threads_util.Table.Left; Threads_util.Table.Right;
            Threads_util.Table.Right ]
        ~title:"whole-program static analysis (locksets, lock order)"
        [ "scenario"; "lock-order edges"; "findings" ]
    in
    List.iter
      (fun (r : SC.Progcheck.report) ->
        Threads_util.Table.add_row pt
          [ r.SC.Progcheck.p_scenario;
            string_of_int (List.length r.SC.Progcheck.p_edges);
            string_of_int (List.length r.SC.Progcheck.p_findings) ])
      prog_reports;
    emit (Threads_util.Table.render pt);
    List.iter
      (fun (r : SC.Progcheck.report) -> emit_findings r.SC.Progcheck.p_findings)
      prog_reports;
    if demos then begin
      let dt =
        Threads_util.Table.create
          ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Left ]
          ~title:"defect demonstrations (not counted in the verdict)"
          [ "scenario"; "finding" ]
      in
      List.iter
        (fun (r : SC.Progcheck.report) ->
          List.iter
            (fun (f : SC.Finding.t) ->
              Threads_util.Table.add_row dt
                [ r.SC.Progcheck.p_scenario;
                  Printf.sprintf "[%s] %s" f.SC.Finding.cls f.SC.Finding.msg ])
            r.SC.Progcheck.p_findings)
        demo_reports;
      emit (Threads_util.Table.render dt)
    end
    end;
    emit
      (Printf.sprintf "check-spec: %s: %d error(s), %d warning(s)\n" name
         errs warns));
  finish ();
  if errs > 0 then exit 1

let cmd =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:
             "Specification file in the concrete syntax; defaults to the \
              built-in Threads interface (specs/threads.lspec)")
  in
  let lint_only_flag =
    Arg.(value & flag & info [ "lint-only" ]
           ~doc:"Run only the clause-level linter")
  in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:
             "Verify the verifier: every seeded spec defect must be flagged \
              with its expected diagnostic class while the pristine spec \
              stays clean; non-zero exit otherwise")
  in
  let crosscheck =
    Arg.(value
         & opt ~vopt:(Some "") (some string) None
         & info [ "crosscheck" ] ~docv:"FILE"
             ~doc:
               "Check DPOR soundness: every violation class observed by \
                dynamic exploration must be reachable in the static \
                abstraction.  With $(docv), read the dynamic violations \
                from a $(b,repro explore --format=json) report; otherwise \
                use the pinned expectation sets")
  in
  let demos =
    Arg.(value & flag & info [ "demos" ]
           ~doc:
             "Also analyze the built-in defect demonstration scenarios \
              (lock inversion, double acquire, unheld release, blocking in \
              an interrupt handler); their findings do not affect the exit \
              status")
  in
  let run file lint_only_flag mutants crosscheck demos format out =
    if mutants then check_spec_mutants ~format ~out
    else
      match crosscheck with
      | Some dynamic_file -> check_spec_crosscheck ~dynamic_file ~format ~out
      | None ->
        let name, src = read_spec file in
        let iface, locs = parse_spec name src in
        if lint_only_flag then lint_only name iface locs ~out
        else check_spec_full name iface locs ~demos ~format ~out
  in
  Cmd.v
    (Cmd.info "check-spec"
       ~doc:
         "Statically verify an interface specification.  Pass 1 lints every \
          clause (well-formedness, dead WHEN guards, unimplementable \
          ENSURES, unconstrained MODIFIES) and model-checks a finite \
          abstract transition system compiled from the spec: deadlock \
          freedom with benign-wakeup separation, signal-loss freedom across \
          the Enqueue/Resume window, mutex-theft freedom, stale-waiter and \
          mutual-exclusion invariants, and case reachability.  Pass 2 \
          statically analyzes client scenarios without executing them: \
          must-hold locksets, lock-order cycles, blocking calls in \
          interrupt handlers.  $(b,--mutants) validates the verifier \
          against seeded spec defects; $(b,--crosscheck) validates the \
          abstraction against dynamic DPOR exploration; non-zero exit on \
          any error-level finding")
    Term.(
      const run $ file $ lint_only_flag $ mutants $ crosscheck $ demos
      $ Cli.format_arg $ Cli.out_arg)
