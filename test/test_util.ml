(* Unit and property tests for threads_util. *)

open Threads_util

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.next a) (Rng.next b)

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  let xs = List.init 5 (fun _ -> Rng.next a) in
  let ys = List.init 5 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_pick_singleton () =
  let r = Rng.create 0 in
  Alcotest.(check int) "pick [x]" 9 (Rng.pick r [| 9 |])

(* The literal stream, pinned: every seeded schedule, plan and generated
   program in the reproduction draws from it, so a change to how draws
   are computed must leave these values where they are. *)
let test_rng_stream_pinned () =
  let ints = Alcotest.(list int) in
  let draws n f = List.init n (fun _ -> f ()) in
  List.iter
    (fun (seed, next, int5, cell, split) ->
      let r = Rng.create seed in
      Alcotest.check ints (Printf.sprintf "next, seed %d" seed) next
        (draws 3 (fun () -> Rng.next r));
      let r = Rng.create seed in
      Alcotest.check ints (Printf.sprintf "int 5, seed %d" seed) int5
        (draws 8 (fun () -> Rng.int r 5));
      let c = Rng.cell ~base:seed ~index:3 in
      Alcotest.check ints (Printf.sprintf "cell ~base:%d ~index:3" seed) cell
        (draws 2 (fun () -> Rng.next c));
      let s = Rng.split (Rng.create seed) in
      Alcotest.check ints (Printf.sprintf "split, seed %d" seed) split
        (draws 2 (fun () -> Rng.next s)))
    [
      ( 0,
        [ 2459150361376443823; 3348600503766967796; 487617019471545679 ],
        [ 3; 1; 4; 2; 2; 1; 3; 3 ],
        [ 1018160631591369528; 2586914330976800065 ],
        [ 1624281087606523372; 352891217374048651 ] );
      ( 7,
        [ 2579403582464986583; 309689372594955804; 2781043691533445634 ],
        [ 3; 4; 4; 0; 0; 0; 4; 3 ],
        [ 3371350260446163324; 4270312243260898756 ],
        [ 3692325786007611499; 2392302546444273065 ] );
    ]

let prop_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r in
      x >= 0.0 && x < 1.0)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let test_stats_known () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 2.5 s.Stats.p50;
  Alcotest.(check int) "n" 4 s.Stats.n

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "sd of constant" 0.0 (Stats.stddev [ 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "sd of +-1" 1.0 (Stats.stddev [ 0.0; 2.0 ])

let test_percentile_interpolation () =
  let sorted = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile 0.0 sorted);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (Stats.percentile 100.0 sorted);
  Alcotest.(check (float 1e-9)) "p50" 15.0 (Stats.percentile 50.0 sorted)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:300
    QCheck.(pair (float_range 0.0 100.0) (list_of_size (Gen.int_range 1 20) (float_range (-50.) 50.)))
    (fun (p, xs) ->
      let sorted = Array.of_list (List.sort compare xs) in
      let v = Stats.percentile p sorted in
      v >= sorted.(0) && v <= sorted.(Array.length sorted - 1))

(* Str may not be linked; do it by hand instead. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_rendering () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "333"; "4" ];
  let out = Table.render t in
  Alcotest.(check bool) "title" true (contains out "== demo ==");
  Alcotest.(check bool) "cell" true (contains out "333");
  Alcotest.(check bool) "header" true (contains out "bb")

let test_table_mismatch () =
  let t = Table.create ~title:"x" [ "a" ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  Alcotest.(check string) "ratio" "2.50x" (Table.cell_ratio 2.5);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125);
  Alcotest.(check string) "float" "1.23" (Table.cell_float 1.234);
  Alcotest.(check string) "int" "7" (Table.cell_int 7)

let test_tid_set () =
  let s = Tid.Set.of_int_list [ 3; 1; 2 ] in
  Alcotest.(check string) "pp sorted" "{t1, t2, t3}" (Tid.Set.to_string s);
  Alcotest.(check string) "tid pp" "t5" (Tid.to_string 5)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "util",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng pick singleton" `Quick test_pick_singleton;
      Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
      q prop_int_bounds;
      q prop_float_unit;
      q prop_shuffle_permutation;
      Alcotest.test_case "stats known values" `Quick test_stats_known;
      Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
      Alcotest.test_case "percentile interpolation" `Quick
        test_percentile_interpolation;
      q prop_percentile_bounds;
      Alcotest.test_case "table rendering" `Quick test_table_rendering;
      Alcotest.test_case "table mismatch" `Quick test_table_mismatch;
      Alcotest.test_case "table cells" `Quick test_table_cells;
      Alcotest.test_case "tid sets" `Quick test_tid_set;
    ] )
