(* The experiment registry and the shared scenarios. *)

let test_registry_complete () =
  let ids =
    List.map (fun (e : Threads_harness.Exp.t) -> e.id) Threads_harness.Registry.all
  in
  Alcotest.(check (list string)) "all ten experiments"
    [ "E1"; "E10"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9" ]
    ids

let test_find_case_insensitive () =
  Alcotest.(check bool) "finds e1" true
    (Threads_harness.Registry.find "e1" <> None);
  Alcotest.(check bool) "unknown" true (Threads_harness.Registry.find "E99" = None)

let test_every_experiment_has_claim () =
  List.iter
    (fun (e : Threads_harness.Exp.t) ->
      Alcotest.(check bool) (e.id ^ " cites the paper") true
        (String.length e.claim > 40))
    Threads_harness.Registry.all

let test_scenarios_clean_under_final () =
  let check name scen =
    match
      (Threads_model.Checker.run Spec_core.Threads_interface.final scen)
        .Threads_model.Checker.violation
    with
    | None -> ()
    | Some v -> Alcotest.fail (Printf.sprintf "%s: %s" name v.message)
  in
  check "mutex x3" (Threads_harness.Scenarios.mutex_contention 3);
  check "wait/signal x2" (Threads_harness.Scenarios.wait_signal 2);
  check "alert-wait excl" (Threads_harness.Scenarios.alert_wait_mutual_exclusion ());
  check "nelson" (Threads_harness.Scenarios.nelson ());
  check "pv" (Threads_harness.Scenarios.semaphore_pingpong ())

let test_e5_engine () =
  (* The delay-bounded engine reliably produces the stranding witness. *)
  let found, stats = Threads_harness.E5.exhaustive_naive () in
  Alcotest.(check (list string)) "stranding found" [ "stranded waiter found" ]
    found;
  Alcotest.(check bool) "cheaply" true
    (stats.Firefly.Explore.executions < 5_000)

let suite =
  ( "harness",
    [
      Alcotest.test_case "registry complete" `Quick test_registry_complete;
      Alcotest.test_case "find is case-insensitive" `Quick
        test_find_case_insensitive;
      Alcotest.test_case "claims cite the paper" `Quick
        test_every_experiment_has_claim;
      Alcotest.test_case "scenarios clean under final spec" `Quick
        test_scenarios_clean_under_final;
      Alcotest.test_case "E5 bounded-search engine" `Quick test_e5_engine;
    ] )
