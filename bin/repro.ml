(* repro — regenerate the paper's evaluation claims.  One Cmd_* module
   per subcommand, over the shared plumbing in Cli; this file is the
   command table that both Cmd.group and `repro help` read. *)

open Cmdliner

let rec commands =
  lazy
    [ (Cmd_experiments.list, "list the experiments and the claims they reproduce");
      (Cmd_experiments.run, "run one or more experiments by id (e.g. run E1 E7)");
      (Cmd_experiments.all, "run every experiment");
      (Cmd_experiments.spec, "print a specification variant in the concrete syntax");
      (Cmd_demo.trace, "run a demo workload and print / export its linearized trace");
      (Cmd_demo.metrics, "run the demo workload and print the observability report");
      (Cmd_conform.conform, "replay a backend's trace against the formal spec");
      (Cmd_conform.diff, "run all backends side by side and compare verdicts");
      (Cmd_chaos.cmd, "deterministic fault-plan sweeps with spec conformance");
      (Cmd_generate.cmd, "generative chaos: random programs, shrink, replay");
      (Cmd_explore.cmd, "DPOR schedule exploration of the small scenarios");
      (Cmd_analyze.cmd, "dynamic race and lock-order analysis (or --mutants)");
      (Cmd_profile.cmd, "causal profiler: critical path, blockers, wait forensics");
      (Cmd_check_spec.cmd, "static spec verifier: lint + abstract model check");
      ( Cmd.v
          (Cmd.info "help" ~doc:"Print a one-line summary of every subcommand")
          Term.(const print_summaries $ const ()),
        "print this subcommand summary" ) ]

(* The subcommand map, for bare `repro` and `repro help`. *)
and print_summaries () =
  let commands = Lazy.force commands in
  print_string
    "repro — Birrell/Guttag/Horning/Levin synchronization primitives, \
     reproduced\n\nCommands:\n";
  let w =
    List.fold_left (fun a (c, _) -> max a (String.length (Cmd.name c))) 0
      commands
  in
  List.iter
    (fun (c, s) -> Printf.printf "  %-*s  %s\n" w (Cmd.name c) s)
    commands;
  print_string
    "\nRun 'repro COMMAND --help' for flags; matrix commands take --jobs, \
     --progress, --fleet and --fleet-trace.\n"

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduction of Birrell, Guttag, Horning & Levin, Synchronization \
         Primitives for a Multiprocessor: A Formal Specification (SRC-20, \
         1987)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:Term.(const print_summaries $ const ()) info
          (List.map fst (Lazy.force commands))))
