(* Tests for the observability subsystem (lib/obs): instrument registry
   semantics, snapshot determinism under a fixed seed, the contended >
   uncontended spin invariant, and the Chrome trace-event exporter
   round-tripped through the in-tree JSON parser. *)

module I = Obs.Instrument
module Ops = Firefly.Machine.Ops

(* -------------------------------------------------------------------- *)
(* Instrument registry unit semantics                                    *)

let test_counters_gauges () =
  let t = I.create () in
  I.incr t "a" 2;
  I.incr t "a" 3;
  I.incr t "materialized" 0;
  I.gauge_max t "g" 4;
  I.gauge_max t "g" 2;
  I.sample t "h" 10;
  I.sample t "h" 30;
  let snap = I.snapshot t in
  Alcotest.(check (list (pair string int)))
    "counters sorted, zero materialized"
    [ ("a", 5); ("materialized", 0) ]
    snap.I.counters;
  Alcotest.(check (list (pair string int))) "gauge keeps max" [ ("g", 4) ]
    snap.I.gauges;
  match snap.I.histograms with
  | [ ("h", s) ] ->
    Alcotest.(check int) "histogram n" 2 s.Threads_util.Stats.n;
    Alcotest.(check (float 1e-9)) "histogram mean" 20.0
      s.Threads_util.Stats.mean
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_spans () =
  let t = I.create () in
  I.span_begin t ~track:1 ~cat:"m" "held" ~now:10;
  Alcotest.(check int) "one open span" 1 (I.open_span_count t);
  (match I.span_end t ~track:1 "held" ~now:25 with
  | Some d -> Alcotest.(check int) "duration" 15 d
  | None -> Alcotest.fail "span_end should match the begin");
  Alcotest.(check bool) "unmatched end is None" true
    (I.span_end t ~track:1 "held" ~now:30 = None);
  I.span_begin t ~track:2 "leaked" ~now:0;
  I.span_add t ~track:1 ~cat:"m" "direct" ~t0:40 ~t1:45;
  let snap = I.snapshot t in
  (* open spans are dropped from the snapshot; completed ones are kept in
     (t0, track) order *)
  Alcotest.(check (list string)) "completed spans only, t0 order"
    [ "held"; "direct" ]
    (List.map (fun (s : I.span) -> s.I.name) snap.I.spans)

(* -------------------------------------------------------------------- *)
(* Simulator-backed workloads                                            *)

(* The workload's machine, with [observe] subscribed to it. *)
let run_mutex_workload ?(observe = ignore) ~threads ~seed () =
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed) (fun machine ->
        observe machine;
        Taos_threads.Api.build
          (fun sync ->
            let module S =
              (val sync : Taos_threads.Sync_intf.SYNC
                 with type thread = Threads_util.Tid.t)
            in
            let m = S.mutex () in
            let worker () =
              for _ = 1 to 50 do
                S.acquire m;
                Ops.tick 5;
                S.release m;
                Ops.tick 5
              done
            in
            let ts = List.init threads (fun _ -> S.fork worker) in
            List.iter S.join ts)
          machine)
  in
  report.Firefly.Interleave.machine

(* The statistics of one run, folded by [Obs.Instrument.record]. *)
let snapshot_of ~threads ~seed =
  let reg = I.create () in
  ignore
    (run_mutex_workload ~observe:(Obs.Instrument.record reg) ~threads
       ~seed ());
  I.snapshot reg

let test_snapshot_deterministic () =
  let s1 = snapshot_of ~threads:4 ~seed:7 in
  let s2 = snapshot_of ~threads:4 ~seed:7 in
  Alcotest.(check bool) "same seed, equal snapshots" true (s1 = s2);
  Alcotest.(check string) "same seed, byte-identical report"
    (Obs.Report.render s1) (Obs.Report.render s2);
  let s3 = snapshot_of ~threads:4 ~seed:8 in
  Alcotest.(check bool) "different seed, different snapshot" true (s1 <> s3)

let test_contended_spins_more () =
  let spin snap =
    List.fold_left
      (fun acc (name, v) ->
        if Filename.check_suffix name ".spin_cycles" then acc + v else acc)
      0 snap.I.counters
  in
  let uncontended = snapshot_of ~threads:1 ~seed:5 in
  let contended = snapshot_of ~threads:8 ~seed:5 in
  Alcotest.(check int) "uncontended run never spins" 0 (spin uncontended);
  Alcotest.(check bool) "contended run spins" true (spin contended > 0);
  let fast name snap = List.assoc_opt name snap.I.counters in
  Alcotest.(check (option int)) "uncontended is all fast path"
    (fast "mutex#1.acquires" uncontended)
    (fast "mutex#1.fast_path_hits" uncontended);
  Alcotest.(check bool) "contended misses the fast path" true
    (fast "mutex#1.fast_path_hits" contended
    < fast "mutex#1.acquires" contended)

let test_zero_sim_cost () =
  (* The whole point of the ambient-probe design: instrumented runs charge
     exactly the cycles the workload charges.  An instrumented run, which
     records thousands of statistics, agrees cycle-for-cycle and
     instruction-for-instruction with the same run that nobody
     instruments. *)
  let reg = I.create () in
  let observed =
    run_mutex_workload ~observe:(Obs.Instrument.record reg) ~threads:8
      ~seed:3 ()
  in
  let plain = run_mutex_workload ~threads:8 ~seed:3 () in
  Alcotest.(check bool) "statistics were recorded" true
    ((I.snapshot reg).I.counters <> []);
  Alcotest.(check (list int)) "cycle- and instruction-identical"
    Firefly.Machine.[ total_cycles plain; total_instructions plain ]
    Firefly.Machine.[ total_cycles observed; total_instructions observed ]

(* -------------------------------------------------------------------- *)
(* Chrome trace export, parsed back                                      *)

let test_chrome_roundtrip () =
  let snap = snapshot_of ~threads:4 ~seed:11 in
  Alcotest.(check bool) "workload produced spans" true (snap.I.spans <> []);
  let s =
    Obs.Json.to_string
      (Obs.Chrome_trace.to_json ~cycle_us:Firefly.Cost.us_per_cycle
         ~process_name:"test" snap.I.spans)
  in
  let j = Obs.Json.of_string s in
  let events =
    match Obs.Json.member j "traceEvents" with
    | Obs.Json.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents must be an array"
  in
  let ph e =
    match Obs.Json.member e "ph" with
    | Obs.Json.String s -> s
    | _ -> Alcotest.fail "ph must be a string"
  in
  let begins = List.filter (fun e -> ph e = "B") events in
  let ends = List.filter (fun e -> ph e = "E") events in
  Alcotest.(check int) "one B per completed span"
    (List.length snap.I.spans) (List.length begins);
  Alcotest.(check int) "one E per B" (List.length begins)
    (List.length ends);
  (* Every duration event carries the required trace-event fields, and
     per-track B/E events balance like parentheses. *)
  let depth = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match ph e with
      | "B" | "E" ->
        List.iter
          (fun k -> ignore (Obs.Json.member e k))
          [ "name"; "ts"; "pid"; "tid" ];
        let tid =
          match Obs.Json.member e "tid" with
          | Obs.Json.Int i -> i
          | _ -> Alcotest.fail "tid must be an int"
        in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        let d' = if ph e = "B" then d + 1 else d - 1 in
        if d' < 0 then Alcotest.fail "E without matching B on its track";
        Hashtbl.replace depth tid d'
      | "M" -> ()
      | other -> Alcotest.fail ("unexpected phase " ^ other))
    events;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then
        Alcotest.fail (Printf.sprintf "track %d left %d spans open" tid d))
    depth

let test_json_parser () =
  let j =
    Obs.Json.of_string
      {| {"a": [1, -2.5, true, null], "s": "xA\n", "o": {"k": 3}} |}
  in
  (match Obs.Json.member j "a" with
  | Obs.Json.Arr [ Obs.Json.Int 1; Obs.Json.Float f; Obs.Json.Bool true;
                   Obs.Json.Null ] ->
    Alcotest.(check (float 1e-9)) "float" (-2.5) f
  | _ -> Alcotest.fail "array shape");
  (match Obs.Json.member j "s" with
  | Obs.Json.String s -> Alcotest.(check string) "escapes" "xA\n" s
  | _ -> Alcotest.fail "string shape");
  (* writer/parser round trip *)
  let t = Obs.Json.member j "o" in
  Alcotest.(check bool) "roundtrip" true
    (Obs.Json.of_string (Obs.Json.to_string t) = t);
  Alcotest.check_raises "trailing garbage"
    (Obs.Json.Parse_error "trailing garbage at offset 5") (fun () ->
      ignore (Obs.Json.of_string "null x"))

(* Property: the writer and parser are exact inverses on the whole value
   type — escaped strings, nested arrays/objects, and full-precision
   floats included.  Floats use a shortest-round-trip printer, so equality
   here is bit-exact, not approximate. *)
let json_roundtrip_prop =
  let open QCheck in
  let leaf_gen =
    Gen.oneof
      [
        Gen.return Obs.Json.Null;
        Gen.map (fun b -> Obs.Json.Bool b) Gen.bool;
        Gen.map (fun n -> Obs.Json.Int n) Gen.int;
        Gen.map
          (fun x -> Obs.Json.Float x)
          (Gen.oneof
             [
               Gen.float;
               (* adversarial: sums that %.12g used to collapse *)
               Gen.return (0.1 +. 0.2);
               Gen.return 1.0e-300;
               Gen.return (-1.2345678901234567e22);
               Gen.map (fun n -> float_of_int n /. 7.0) Gen.int;
             ]);
        Gen.map (fun s -> Obs.Json.String s) Gen.string;
      ]
  in
  let value_gen =
    Gen.sized (fun size ->
        Gen.fix
          (fun self n ->
            if n = 0 then leaf_gen
            else
              Gen.oneof
                [
                  leaf_gen;
                  Gen.map
                    (fun xs -> Obs.Json.Arr xs)
                    (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map
                    (fun kvs -> Obs.Json.Obj kvs)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.string (self (n / 2))));
                ])
          (min size 6))
  in
  let rec no_nan = function
    | Obs.Json.Float x -> x = x
    | Obs.Json.Arr xs -> List.for_all no_nan xs
    | Obs.Json.Obj kvs -> List.for_all (fun (_, v) -> no_nan v) kvs
    | _ -> true
  in
  Test.make ~count:500 ~name:"json to_string/of_string round trip"
    (make value_gen)
    (fun j ->
      assume (no_nan j);
      Obs.Json.of_string (Obs.Json.to_string j) = j)

let test_json_float_precision () =
  (* regression: %.12g collapsed 0.1 +. 0.2 to "0.3" *)
  List.iter
    (fun x ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float x)) with
      | Obs.Json.Float y ->
        Alcotest.(check bool)
          (Printf.sprintf "float %h survives exactly" x)
          true (x = y)
      | _ -> Alcotest.fail "float did not parse back as a float")
    [ 0.1 +. 0.2; 1.0 /. 3.0; Float.min_float; Float.max_float; 1e-300 ];
  (* non-finite values degrade to valid JSON rather than bare tokens *)
  Alcotest.(check bool) "nan writes null" true
    (Obs.Json.to_string (Obs.Json.Float Float.nan) = "null");
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float infinity)) with
  | Obs.Json.Float x -> Alcotest.(check bool) "inf round trip" true (x = infinity)
  | _ -> Alcotest.fail "infinity did not parse back");
  (* deeply nested arrays with escaped strings round trip *)
  let nasty =
    Obs.Json.(
      Arr
        [
          Arr [ Arr [ String "a\"b\\c\nd\tx"; Arr [] ] ];
          Obj [ ("k\"1", Arr [ Int 1; Arr [ String "\000\031 ok" ] ]) ];
        ])
  in
  Alcotest.(check bool) "nested/escaped round trip" true
    (Obs.Json.of_string (Obs.Json.to_string nasty) = nasty)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counters/gauges/histograms" `Quick
        test_counters_gauges;
      Alcotest.test_case "span begin/end semantics" `Quick test_spans;
      Alcotest.test_case "same-seed snapshot determinism" `Quick
        test_snapshot_deterministic;
      Alcotest.test_case "contended spins > uncontended" `Quick
        test_contended_spins_more;
      Alcotest.test_case "instrumentation is cycle-stable" `Quick
        test_zero_sim_cost;
      Alcotest.test_case "chrome trace parses back, B/E per span" `Quick
        test_chrome_roundtrip;
      Alcotest.test_case "json writer/parser" `Quick test_json_parser;
      Alcotest.test_case "json float precision & escapes" `Quick
        test_json_float_precision;
      QCheck_alcotest.to_alcotest json_roundtrip_prop;
    ] )
