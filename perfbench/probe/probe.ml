(* The benchmark's in-process half, driven by perfbench/run.py:

     probe.exe setup
     probe.exe reference
     probe.exe lock   --seconds S [--pairs P] [--spans FILE]
     probe.exe layers --seed N [--small] [--spans FILE]

   [setup] is the multicore-lock workload's set-up alone.  [reference]
   runs the reference kernel beside a `repro` process until SIGTERM.
   [lock] is the multicore-lock workload: one untimed warm-up batch, then
   batches of P pairs (default 2 M) in a closed loop until S seconds have
   passed.  [layers] is the per-layer pass, at the smoke test's size with
   --small.  [lock] and [layers] print one JSON line. *)

let flag name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let print_json fields =
  print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

(* multicore-lock: batches of [pairs] Acquire/Release pairs, each followed
   on the same domain by its reference, as many Stdlib.Mutex pairs.
   A batch's cost in ref units is its time over the time of a million
   reference pairs: the host's speed varies by 10-20 % from second to
   second, and both loops, made of atomic read-modify-writes, vary
   together. *)
let lock_loop ~seconds ~pairs ~traced =
  let time name f =
    if traced then Span.timed name f
    else
      let t0 = Span.now_ns () in
      let r = f () in
      (r, float_of_int (Span.now_ns () - t0) *. 1e-9)
  in
  let warm_ok = Lock.uncontended ~pairs && Lock.stdlib ~pairs in
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop acc failed =
    let ok, dt = time "multicore.uncontended_batch" (fun () -> Lock.uncontended ~pairs) in
    let ref_ok, ref_dt = time "multicore.stdlib_reference" (fun () -> Lock.stdlib ~pairs) in
    let acc = (dt, dt /. (ref_dt *. 1e6 /. float_of_int pairs)) :: acc in
    let failed = if ok && ref_ok then failed else failed + 1 in
    if Span.now_ns () < deadline then loop acc failed else (List.rev acc, failed)
  in
  let times, failed = Threads_multicore.Multicore.run (fun () -> loop [] 0) in
  let floats f = Obs.Json.Arr (List.map (fun t -> Obs.Json.Float (f t)) times) in
  let gc = Gc.quick_stat () in
  print_json
    Obs.Json.
      [
        ("batch_s", floats fst);
        ("batch_ref", floats snd);
        ("ops", Int (List.length times));
        ("failed", Int (if warm_ok then failed else failed + 1));
        ("top_heap_words", Int gc.Gc.top_heap_words);
        ("minor_words", Float gc.Gc.minor_words);
        ("promoted_words", Float gc.Gc.promoted_words);
        ("major_collections", Int gc.Gc.major_collections);
      ]

let () =
  let spans = flag "--spans" in
  (match Array.to_list Sys.argv with
  | [ _; "setup" ] -> Lock.setup ()
  | [ _; "reference" ] -> Reference.until_stopped ()
  | _ :: "lock" :: _ ->
    let seconds = Option.fold ~none:10. ~some:float_of_string (flag "--seconds") in
    let pairs = Option.fold ~none:2_000_000 ~some:int_of_string (flag "--pairs") in
    lock_loop ~seconds ~pairs ~traced:(spans <> None)
  | _ :: "layers" :: _ ->
    let seed = Option.fold ~none:7 ~some:int_of_string (flag "--seed") in
    let small = Array.mem "--small" Sys.argv in
    let metrics, failures = Layers.run ~seed ~small in
    print_json
      Obs.Json.
        [
          ( "metrics",
            Obj
              (List.map
                 (fun (m : Layers.metric) ->
                   (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit) ]))
                 metrics) );
          ("failed", Int (List.length failures));
          ("failures", Arr (List.map (fun f -> String f) failures));
        ]
  | _ ->
    prerr_endline "usage: probe.exe (setup | reference | lock | layers) [flags]";
    exit 2);
  Option.iter Span.write spans
