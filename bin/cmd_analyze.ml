(* repro analyze — dynamic race and lock-order analysis of a backend's
   shared-memory access stream, or of the seeded analyzer mutants. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module An = Threads_analysis.Analysis
module Mu = Threads_analysis.Mutants

let report_summary_row name (r : An.report) shown =
  [
    name;
    Threads_util.Table.cell_int r.An.n_accesses;
    Threads_util.Table.cell_int r.An.n_data_words;
    Threads_util.Table.cell_int r.An.n_exempt_words;
    Threads_util.Table.cell_int (List.length r.An.lockset);
    Threads_util.Table.cell_int (List.length r.An.hb);
    Threads_util.Table.cell_int (List.length (An.cycles r));
    shown;
  ]

type analyzer_filter = All | Races_only | Lock_order_only

let filtered_findings filter (r : An.report) =
  match filter with
  | All -> An.findings r
  | Races_only ->
    List.map (Format.asprintf "%a" Threads_analysis.Lockset.pp_race) r.An.lockset
    @ List.map (Format.asprintf "%a" Threads_analysis.Hb.pp_race) r.An.hb
  | Lock_order_only ->
    List.map
      (Format.asprintf "%a"
         (Threads_analysis.Lockorder.pp_cycle ~lock_name:r.An.lock_name))
      (An.cycles r)

let analyze_report_json name (r : An.report) extra findings =
  let open Obs.Json in
  Obj
    ([
       ("name", String name);
       ("accesses", Int r.An.n_accesses);
       ("data_words", Int r.An.n_data_words);
       ("exempt_words", Int r.An.n_exempt_words);
       ("lockset_races", Int (List.length r.An.lockset));
       ("hb_races", Int (List.length r.An.hb));
       ("lock_order_cycles", Int (List.length (An.cycles r)));
     ]
    @ extra
    @ [ ("findings", Arr (List.map (fun s -> String s) findings)) ])

let analyze_mutants filter seed ~jobs ~format ~out ~fleet =
  let scenarios = Array.of_list Mu.all in
  let reports =
    Cli.with_fleet ~label:"analyze --mutants" ~jobs
      ~total:(Array.length scenarios) fleet (fun fl ->
        Threads_runner.Matrix.map ?telemetry:fl.Cli.telemetry ~jobs
          ~n:(Array.length scenarios)
          (fun i ->
            let log = An.log () in
            An.of_run log (scenarios.(i).Mu.m_run ~seed (An.record log))))
  in
  let t =
    Threads_util.Table.create
      ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right;
                Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Left ]
      ~title:(Printf.sprintf "analyze: seeded mutants (seed %d)" seed)
      [ "scenario"; "accesses"; "data"; "exempt"; "lockset"; "hb";
        "cycles"; "expected" ]
  in
  let failures = ref [] in
  let details = ref [] in
  let records = ref [] in
  Array.iteri
    (fun i (s : Mu.scenario) ->
      let r = reports.(i) in
      let expected, caught =
        match s.Mu.m_expect with
        | Mu.Hb -> ("hb race", r.An.hb <> [] && r.An.lockset = [])
        | Mu.Lockset -> ("lockset race", r.An.lockset <> [])
        | Mu.Lock_order -> ("lock-order cycle", An.cycles r <> [])
        | Mu.Clean -> ("no findings", An.clean r)
      in
      if not caught then
        failures :=
          Printf.sprintf "%s: expected %s, got %d lockset / %d hb / %d cycles"
            s.Mu.m_name expected (List.length r.An.lockset)
            (List.length r.An.hb)
            (List.length (An.cycles r))
          :: !failures;
      details :=
        List.map (Printf.sprintf "  [%s] %s" s.Mu.m_name)
          (filtered_findings filter r)
        :: !details;
      records :=
        analyze_report_json s.Mu.m_name r
          [ ("expected", Obs.Json.String expected);
            ("caught", Obs.Json.Bool caught) ]
          (filtered_findings filter r)
        :: !records;
      Threads_util.Table.add_row t
        (report_summary_row s.Mu.m_name r
           (Printf.sprintf "%s %s" expected (if caught then "(caught)" else "(MISSED)"))))
    scenarios;
  let emit, finish = Cli.make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("kind", Obs.Json.String "dynamic");
              ("seed", Obs.Json.Int seed);
              ("scenarios", Obs.Json.Arr (List.rev !records)) ])
      ^ "\n")
  | `Table ->
    emit (Threads_util.Table.render t);
    List.iter (List.iter (fun l -> emit (l ^ "\n"))) (List.rev !details);
    if !failures = [] then
      emit "all mutants caught by their intended detector\n");
  finish ();
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
    exit 1

let analyze_backend filter backend workload seed ~jobs ~format ~out ~fleet =
  let b = Cli.backend backend in
  (* The expensive part — running the workload and replaying its access
     stream through the analyzers — is a parallel matrix over workloads;
     rendering below stays sequential and deterministic. *)
  let wls = Array.of_list (Cli.workloads workload) in
  let analyses =
    Cli.with_fleet ~label:("analyze " ^ b.Bk.name) ~jobs
      ~total:(Array.length wls) fleet (fun fl ->
        Threads_runner.Matrix.map ?telemetry:fl.Cli.telemetry ~jobs
          ~n:(Array.length wls) (fun i ->
            if Bk.supports b wls.(i) then Some (An.run_backend b ~seed wls.(i))
            else None))
  in
  let t =
    Threads_util.Table.create
      ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right;
                Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Right; Threads_util.Table.Left ]
      ~title:
        (Printf.sprintf "analyze: backend %s (seed %d)%s" backend seed
           (if b.Bk.conforming then "" else " [non-conforming baseline]"))
      [ "workload"; "accesses"; "data"; "exempt"; "lockset"; "hb";
        "cycles"; "verdict" ]
  in
  let findings = ref [] in
  let records = ref [] in
  let skipped_record name status =
    Obs.Json.Obj
      [ ("name", Obs.Json.String name); ("status", Obs.Json.String status) ]
  in
  Array.iteri
    (fun i (wl : Wl.t) ->
      match analyses.(i) with
      | Some res ->
        let r = res.An.br_report in
        let verdict =
          Format.asprintf "%a" Bk.pp_verdict res.An.br_outcome.Bk.verdict
        in
        findings :=
          List.map (Printf.sprintf "  [%s] %s" wl.Wl.name)
            (filtered_findings filter r)
          :: !findings;
        records :=
          analyze_report_json wl.Wl.name r
            [ ("verdict", Obs.Json.String verdict) ]
            (filtered_findings filter r)
          :: !records;
        Threads_util.Table.add_row t (report_summary_row wl.Wl.name r verdict)
      | None ->
        records := skipped_record wl.Wl.name "skipped" :: !records;
        Threads_util.Table.add_row t
          [ wl.Wl.name; "-"; "-"; "-"; "-"; "-"; "-"; "skipped" ])
    wls;
  let findings = List.concat (List.rev !findings) in
  let emit, finish = Cli.make_emit out in
  (match format with
  | `Json ->
    emit
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("schema_version", Obs.Json.Int 1);
              ("backend", Obs.Json.String b.Bk.name);
              ("seed", Obs.Json.Int seed);
              ("workloads", Obs.Json.Arr (List.rev !records)) ])
      ^ "\n")
  | `Table ->
    emit (Threads_util.Table.render t);
    List.iter (fun l -> emit (l ^ "\n")) findings;
    if findings = [] then emit "no findings\n"
    else if not b.Bk.conforming then
      emit "(findings on a non-conforming baseline are expected divergence)\n");
  finish ();
  if findings <> [] && b.Bk.conforming then begin
    Printf.eprintf "FAIL: conforming backend %s has findings\n" b.Bk.name;
    exit 1
  end

let cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to analyze (sim, uniproc, naive, hoare, multicore)")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED") in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:
             "Analyze the seeded fault-injection scenarios instead of a \
              backend; non-zero exit unless every mutant is caught by its \
              intended detector and the clean control stays silent")
  in
  let races =
    Arg.(value & flag & info [ "races" ]
           ~doc:"Report race findings only (lockset + happens-before)")
  in
  let lock_order =
    Arg.(value & flag & info [ "lock-order" ]
           ~doc:"Report lock-order cycles only")
  in
  let run backend workload seed mutants races lock_order format out jobs
      fleet =
    let filter =
      match (races, lock_order) with
      | true, false -> Races_only
      | false, true -> Lock_order_only
      | _ -> All
    in
    if mutants then analyze_mutants filter seed ~jobs ~format ~out ~fleet
    else analyze_backend filter backend workload seed ~jobs ~format ~out ~fleet
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Record a workload's shared-memory access stream on one backend \
          and run the dynamic analyzers over it: Eraser-style lockset and \
          vector-clock happens-before race detection plus lock-order \
          (deadlock-potential) cycle detection.  Non-zero exit if a \
          conforming backend yields findings.  With $(b,--mutants), \
          validate the analyzers against seeded bugs instead.  \
          $(b,--format=json --out=FILE) emits the report machine-readably")
    Term.(
      const run $ backend $ Cli.workloads_arg $ seed $ mutants $ races
      $ lock_order $ Cli.format_arg $ Cli.out_arg $ Cli.jobs_arg
      $ Cli.fleet_term)
