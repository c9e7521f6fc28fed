(* repro generate — the generative chaos engine: random client programs
   run against a backend, shrunk, saved and replayed; or the mutant kill
   table. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Gen = Threads_gen

let cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to generate against (sim, uniproc, naive, hoare, \
                 multicore)")
  in
  let runs =
    Arg.(value & opt Cli.positive 100 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of generated scenarios")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S"
           ~doc:"Campaign base seed; cell $(b,i) draws from the \
                 deterministic (S, i) stream")
  in
  let policy =
    Arg.(value & opt string "safe" & info [ "policy" ] ~docv:"P"
           ~doc:"Generation policy: $(b,safe) (deadlock-free by \
                 construction; any stranding is a finding), $(b,free) \
                 (unconstrained; only spec violations count), $(b,irq) \
                 (safe plus interrupt-context V)")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Compose each scenario with a generated fault plan \
                 (backend must have a chaos driver)")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ]
           ~doc:"Minimize the first counterexample to a locally-minimal \
                 replayable scenario")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Write the minimized counterexample as a replay file \
                 (implies $(b,--shrink))")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run a saved counterexample file and re-classify it \
                 (exit 1 if the pinned classification does not reproduce)")
  in
  let mutants =
    Arg.(value & flag & info [ "mutants" ]
           ~doc:"Mutation adequacy: run generated scenarios against every \
                 seeded spec mutant and report the kill table")
  in
  let scenarios =
    Arg.(value & opt Cli.count 12 & info [ "scenarios" ] ~docv:"N"
           ~doc:"Generated scenarios per differential in $(b,--mutants) \
                 mode")
  in
  let require =
    Arg.(value & opt Cli.count 0 & info [ "require" ] ~docv:"K"
           ~doc:"In $(b,--mutants) mode, exit non-zero unless at least \
                 $(docv) mutants are killed")
  in
  let run_replay file out =
    let emit, finish = Cli.make_emit out in
    match Gen.Replay.load file with
    | Error msg ->
      Printf.eprintf "cannot replay %s: %s\n" file msg;
      exit 1
    | Ok r ->
      let b = Cli.backend r.Gen.Replay.backend in
      let c =
        try Gen.Oracle.run b r.Gen.Replay.scenario
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      let got =
        match c with
        | Gen.Oracle.Pass label -> Printf.sprintf "pass (%s)" label
        | Gen.Oracle.Fail (kind, detail) ->
          Printf.sprintf "%s (%s)" (Gen.Oracle.kind_name kind) detail
      in
      emit (Printf.sprintf "replay %s: backend=%s %s\n" file b.Bk.name got);
      let ok =
        match (r.Gen.Replay.expect, c) with
        | None, _ -> true
        | Some k, Gen.Oracle.Fail (k', _) -> Gen.Oracle.same_kind k k'
        | Some _, Gen.Oracle.Pass _ -> false
      in
      (match r.Gen.Replay.expect with
      | Some k ->
        emit
          (Printf.sprintf "  pinned %s: %s\n" (Gen.Oracle.kind_name k)
             (if ok then "reproduced" else "NOT REPRODUCED"))
      | None -> ());
      finish ();
      if not ok then exit 1
  in
  let run_mutants ~seed ~scenarios ~require out =
    let emit, finish = Cli.make_emit out in
    let rows = Gen.Mutants.kill_table ~scenarios ~seed () in
    emit (Format.asprintf "%a" Gen.Mutants.render rows);
    finish ();
    if Gen.Mutants.killed rows < require then begin
      Printf.eprintf "FAIL: %d mutants killed, %d required\n"
        (Gen.Mutants.killed rows) require;
      exit 1
    end
  in
  let run backend runs seed policy chaos shrink save replay mutants
      scenarios require out jobs fleet =
    if replay <> None && mutants then begin
      Printf.eprintf "--replay and --mutants are mutually exclusive\n";
      exit 1
    end;
    match replay with
    | Some file -> run_replay file out
    | None when mutants -> run_mutants ~seed ~scenarios ~require out
    | None ->
      let b = Cli.backend backend in
      let policy =
        Cli.lookup ~what:"policy"
          ~names:(List.map Gen.Generate.policy_name Gen.Generate.policies)
          Gen.Generate.policy_of_string policy
      in
      let config =
        {
          Gen.Campaign.policy;
          runs;
          seed;
          chaos;
          shrink = shrink || save <> None;
        }
      in
      let emit, finish = Cli.make_emit out in
      Cli.with_fleet ~label:("generate " ^ b.Bk.name) ~jobs ~total:runs fleet
        (fun fl ->
          let r =
            try Gen.Campaign.run ?telemetry:fl.Cli.telemetry ~jobs b config
            with Invalid_argument msg ->
              Printf.eprintf "%s\n" msg;
              exit 1
          in
          emit (Format.asprintf "%a" Gen.Campaign.render r);
          finish ();
          Option.iter
            (fun file ->
              match r.Gen.Campaign.minimal with
              | Some (rf, _) ->
                Cli.write_side_file file (Gen.Replay.to_string rf)
              | None ->
                Printf.eprintf
                  "no counterexample to save (all %d runs passed)\n"
                  r.Gen.Campaign.config.Gen.Campaign.runs)
            save;
          if b.Bk.conforming && r.Gen.Campaign.failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generative chaos engine: generate random client programs over \
          random object graphs (locks, semaphores, condition flags, \
          producer/consumer tokens, alerts, timeouts, interrupt-context \
          V), run them against a backend with spec-conformance checking, \
          and shrink any counterexample to a locally-minimal replayable \
          (program, seed, fault plan) triple.  Deterministic in \
          $(b,--seed) at any $(b,--jobs).  $(b,--replay) re-runs a saved \
          counterexample; $(b,--mutants) measures mutation adequacy \
          against the seeded spec defects.  Non-zero exit when a \
          conforming backend yields a counterexample")
    Term.(
      const run $ backend $ runs $ seed $ policy $ chaos $ shrink $ save
      $ replay $ mutants $ scenarios $ require $ Cli.out_arg $ Cli.jobs_arg
      $ Cli.fleet_term)
