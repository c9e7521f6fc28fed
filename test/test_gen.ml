(* The generative chaos engine (lib/gen).

   Pins the engine's headline guarantees: the regression corpus of
   minimized counterexamples replays to its recorded classification;
   shrinking is deterministic (same seed and backend give a
   byte-identical minimal counterexample at any jobs) and monotone
   (every accepted step strictly decreases the measure); generated
   scenarios kill at least 8 of the 10 seeded spec mutants; and the
   program / plan / replay-file codecs round-trip. *)

module Rng = Threads_util.Rng
module Gen = Threads_gen
module Bk = Threads_backend.Backend
module Plan = Threads_fault.Plan

let backend name =
  match Bk.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %S not registered" name

(* ---- regression corpus ---- *)

let corpus =
  [ "corpus/e5-naive-stranded.gen"; "corpus/e8-hoare-resume.gen" ]

(* dune runs the suite from the test directory; tolerate a repo-root cwd
   too so the binary can be invoked by hand. *)
let resolve path =
  if Sys.file_exists path then path else Filename.concat "test" path

let test_corpus_replays path () =
  match Gen.Replay.load (resolve path) with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok r ->
    let b = backend r.Gen.Replay.backend in
    let expect =
      match r.Gen.Replay.expect with
      | Some k -> k
      | None -> Alcotest.failf "%s: no pinned classification" path
    in
    (match Gen.Oracle.run b r.Gen.Replay.scenario with
    | Gen.Oracle.Fail (kind, _) when Gen.Oracle.same_kind expect kind -> ()
    | Gen.Oracle.Fail (kind, detail) ->
      Alcotest.failf "%s: expected %s, got %s (%s)" path
        (Gen.Oracle.kind_name expect)
        (Gen.Oracle.kind_name kind)
        detail
    | Gen.Oracle.Pass label ->
      Alcotest.failf "%s: expected %s, passed (%s)" path
        (Gen.Oracle.kind_name expect)
        label)

let test_corpus_is_divergence path () =
  (* Corpus counterexamples witness a backend divergence: the reference
     conforming backend completes the very same program. *)
  match Gen.Replay.load (resolve path) with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok r -> (
    match Gen.Oracle.run (backend "sim") r.Gen.Replay.scenario with
    | Gen.Oracle.Pass _ -> ()
    | Gen.Oracle.Fail (kind, detail) ->
      Alcotest.failf "%s: reference backend also fails: %s (%s)" path
        (Gen.Oracle.kind_name kind) detail)

(* ---- campaign discovery pins (E5 / E8 rediscovered) ---- *)

let config =
  {
    Gen.Campaign.policy = Gen.Generate.Safe;
    runs = 100;
    seed = 7;
    chaos = false;
    shrink = true;
  }

let campaign ?jobs name = Gen.Campaign.run ?jobs (backend name) config

let minimal_text (r : Gen.Campaign.result) =
  match r.Gen.Campaign.minimal with
  | Some (file, _) -> Gen.Replay.to_string file
  | None -> Alcotest.fail "campaign found no counterexample"

let test_rediscovers_e5 () =
  let r = campaign "naive" in
  (match r.Gen.Campaign.first_failure with
  | Some (_, _, Gen.Oracle.Stranded, _) -> ()
  | Some (_, _, k, _) ->
    Alcotest.failf "naive: expected stranding, got %s" (Gen.Oracle.kind_name k)
  | None -> Alcotest.fail "naive: no counterexample in 100 runs");
  let file, _ = Option.get r.Gen.Campaign.minimal in
  let size = Gen.Oracle.scenario_size file.Gen.Replay.scenario in
  Alcotest.(check bool)
    (Printf.sprintf "minimal E5 witness has <= 8 ops (got %d)" size)
    true (size <= 8)

let test_rediscovers_e8 () =
  let r = campaign "hoare" in
  (match r.Gen.Campaign.first_failure with
  | Some (_, _, Gen.Oracle.Violation "Resume", _) -> ()
  | Some (_, _, k, _) ->
    Alcotest.failf "hoare: expected violation:Resume, got %s"
      (Gen.Oracle.kind_name k)
  | None -> Alcotest.fail "hoare: no counterexample in 100 runs");
  let file, _ = Option.get r.Gen.Campaign.minimal in
  let size = Gen.Oracle.scenario_size file.Gen.Replay.scenario in
  Alcotest.(check bool)
    (Printf.sprintf "minimal E8 witness has <= 8 ops (got %d)" size)
    true (size <= 8)

let test_conforming_backends_clean () =
  List.iter
    (fun name ->
      let r =
        Gen.Campaign.run (backend name)
          { config with Gen.Campaign.runs = 40; shrink = false }
      in
      Alcotest.(check (list (pair int pass)))
        (name ^ ": no counterexamples")
        []
        (List.map (fun (i, k) -> (i, Gen.Oracle.kind_name k))
           r.Gen.Campaign.failures))
    [ "sim"; "uniproc" ]

(* ---- shrinker determinism and monotonicity ---- *)

let test_shrink_jobs_parity () =
  let sequential = campaign ~jobs:1 "naive" in
  let parallel = campaign ~jobs:4 "naive" in
  Alcotest.(check string)
    "minimal counterexample byte-identical at --jobs=1 and --jobs=4"
    (minimal_text sequential) (minimal_text parallel);
  Alcotest.(check string)
    "whole rendered report byte-identical"
    (Format.asprintf "%a" Gen.Campaign.render sequential)
    (Format.asprintf "%a" Gen.Campaign.render parallel)

let test_shrink_rerun_identical () =
  Alcotest.(check string)
    "same (seed, backend) shrinks to the same bytes twice"
    (minimal_text (campaign "hoare"))
    (minimal_text (campaign "hoare"))

let measure (st : Gen.Shrink.step) = (st.Gen.Shrink.st_size, st.Gen.Shrink.st_weight)

let test_shrink_monotone () =
  List.iter
    (fun name ->
      let r = campaign name in
      let _, s0, _, _ = Option.get r.Gen.Campaign.first_failure in
      let trail = snd (Option.get r.Gen.Campaign.minimal) in
      let start =
        (Gen.Oracle.scenario_size s0, Gen.Oracle.scenario_weight s0)
      in
      ignore
        (List.fold_left
           (fun prev st ->
             if measure st >= prev then
               Alcotest.failf
                 "%s: non-decreasing shrink step %s: (%d,%d) -> (%d,%d)" name
                 st.Gen.Shrink.st_action (fst prev) (snd prev)
                 st.Gen.Shrink.st_size st.Gen.Shrink.st_weight;
             measure st)
           start trail))
    [ "naive"; "hoare" ]

(* ---- mutation adequacy ---- *)

let test_mutant_kills () =
  let rows = Gen.Mutants.kill_table ~seed:7 () in
  Alcotest.(check int) "all ten mutants in the table" 10 (List.length rows);
  let k = Gen.Mutants.killed rows in
  if k < 8 then
    Alcotest.failf "only %d/10 mutants killed:@.%s" k
      (Format.asprintf "%a" Gen.Mutants.render rows)

(* ---- codecs ---- *)

let generated_programs n =
  List.init n (fun i ->
      let rng = Rng.cell ~base:42 ~index:i in
      Gen.Generate.program
        ~policy:Gen.Generate.(List.nth policies (i mod 3))
        ~features:
          Threads_backend.Workload.[ Alerts; Timeouts; Interrupts ]
        rng)

let test_op_codec_roundtrip () =
  List.iter
    (fun p ->
      List.iter
        (fun op ->
          let enc = Gen.Prog.encode_op op in
          match Gen.Prog.decode_op enc with
          | Some op' when op' = op -> ()
          | Some _ -> Alcotest.failf "codec changed %S" enc
          | None -> Alcotest.failf "codec cannot parse %S" enc)
        (p.Gen.Prog.main @ List.concat p.Gen.Prog.threads))
    (generated_programs 30)

let test_plan_codec_roundtrip () =
  List.init 20 (fun i -> Plan.random ~seed:9 ~id:i)
  |> List.iter (fun plan ->
         List.iter
           (fun a ->
             let enc = Plan.encode_action a in
             match Plan.decode_action enc with
             | Some a' when a' = a -> ()
             | Some _ -> Alcotest.failf "plan codec changed %S" enc
             | None -> Alcotest.failf "plan codec cannot parse %S" enc)
           plan.Plan.actions)

let test_replay_roundtrip () =
  List.iteri
    (fun i p ->
      let file =
        {
          Gen.Replay.backend = "sim";
          scenario =
            {
              Gen.Oracle.program = p;
              policy = Gen.Generate.Free;
              seed = 1000 + i;
              plan = (if i mod 2 = 0 then Some (Plan.random ~seed:5 ~id:i) else None);
            };
          expect = (if i mod 3 = 0 then Some Gen.Oracle.Stranded else None);
        }
      in
      match Gen.Replay.parse (Gen.Replay.to_string file) with
      | Ok file' when file' = file -> ()
      | Ok _ -> Alcotest.failf "replay roundtrip changed file %d" i
      | Error msg -> Alcotest.failf "replay roundtrip failed: %s" msg)
    (generated_programs 12)

let test_canonicalize_idempotent () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "canonicalize is idempotent" true
        (Gen.Prog.canonicalize p = p))
    (generated_programs 30)

let suite =
  ( "gen",
    List.map
      (fun path ->
        Alcotest.test_case ("corpus replays: " ^ path) `Quick
          (test_corpus_replays path))
      corpus
    @ List.map
        (fun path ->
          Alcotest.test_case ("corpus diverges: " ^ path) `Quick
            (test_corpus_is_divergence path))
        corpus
    @ [
        Alcotest.test_case "rediscovers E5 stranding on naive" `Quick
          test_rediscovers_e5;
        Alcotest.test_case "rediscovers E8 Resume violation on hoare" `Quick
          test_rediscovers_e8;
        Alcotest.test_case "conforming backends yield no counterexamples"
          `Quick test_conforming_backends_clean;
        Alcotest.test_case "shrink byte-identical across --jobs" `Quick
          test_shrink_jobs_parity;
        Alcotest.test_case "shrink byte-identical across reruns" `Quick
          test_shrink_rerun_identical;
        Alcotest.test_case "shrink measure strictly decreases" `Quick
          test_shrink_monotone;
        Alcotest.test_case "generated scenarios kill >= 8/10 spec mutants"
          `Quick test_mutant_kills;
        Alcotest.test_case "op codec round-trips" `Quick
          test_op_codec_roundtrip;
        Alcotest.test_case "plan codec round-trips" `Quick
          test_plan_codec_roundtrip;
        Alcotest.test_case "replay files round-trip" `Quick
          test_replay_roundtrip;
        Alcotest.test_case "canonicalize is idempotent" `Quick
          test_canonicalize_idempotent;
      ] )
