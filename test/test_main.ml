(* Entry point: every suite in one alcotest binary.

   The "spec gate" test is the repository's keystone: the shipped
   concrete-syntax specification parses at run time to exactly the value
   generated from it at build time, is well-formed, and survives a
   print/parse round trip. *)

let spec_gate () =
  let open Spec_core in
  let parsed = Parser.interface_of_string Threads_interface.source in
  Alcotest.(check bool) "source parses to builtin" true
    (Proc.equal_interface parsed Threads_interface.final);
  Alcotest.(check (list string)) "well-formed" []
    (Proc.well_formed Threads_interface.final);
  let reparsed =
    Parser.interface_of_string (Printer.to_string Threads_interface.final)
  in
  Alcotest.(check bool) "roundtrip" true
    (Proc.equal_interface reparsed Threads_interface.final)

let () =
  Alcotest.run "threads-repro"
    [
      ("spec-gate", [ Alcotest.test_case "source/builtin/roundtrip" `Quick spec_gate ]);
      Test_util.suite;
      Test_spec_values.suite;
      Test_parser.suite;
      Test_lsl.suite;
      Test_semantics.suite;
      Test_compiled.suite;
      Test_machine.suite;
      Test_tqueue.suite;
      Test_backends.suite;
      Test_conformance.suite;
      Test_checker.suite;
      Test_races.suite;
      Test_timed.suite;
      Test_swarm.suite;
      Test_gen.suite;
      Test_obs.suite;
      Test_harness.suite;
      Test_failures.suite;
      Test_multicore.suite;
      Test_cross_backend.suite;
      Test_fault.suite;
      Test_analysis.suite;
      Test_staticcheck.suite;
      Test_profile.suite;
      Test_runner.suite;
      Test_telemetry.suite;
    ]
