(** E9 — the specification as checkable documentation, at scale.

    Paper (Discussion): the condensed spec "is the reference of choice for
    programmers using the Threads interface", and reasoning that the
    implementation satisfies it was done by hand.  We mechanize: the model
    checker's state counts as client scenarios grow, and the conformance
    checker's throughput over long implementation traces — with zero
    violations against the final specification. *)

module Table = Threads_util.Table
module C = Threads_model.Checker

let checker_scaling () =
  let t =
    Table.create ~title:"E9a: model-checker scaling (final spec)"
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "states"; "transitions"; "ms" ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let row name scen =
    let r, ms = time (fun () -> C.run Spec_core.Threads_interface.final scen) in
    (match r.C.violation with
    | None -> ()
    | Some v -> Printf.printf "unexpected violation in %s: %s\n" name v.message);
    Table.add_row t
      [ name; Table.cell_int r.C.states; Table.cell_int r.C.transitions;
        Table.cell_float ms ]
  in
  List.iter
    (fun n -> row (Printf.sprintf "mutex x%d" n) (Scenarios.mutex_contention n))
    [ 2; 3; 4; 5 ];
  List.iter
    (fun n ->
      row (Printf.sprintf "wait/broadcast x%d" n) (Scenarios.wait_signal n))
    [ 1; 2; 3 ];
  row "P/V ping-pong" (Scenarios.semaphore_pingpong ());
  Table.print t

let conformance_throughput () =
  let _, trace =
    Taos_threads.Api.run_traced ~seed:5 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC
             with type thread = Threads_util.Tid.t)
        in
        let m = S.mutex () in
        let c = S.condition () in
        let buf = ref 0 in
        let consumer () =
          for _ = 1 to 500 do
            S.with_lock m (fun () ->
                while !buf = 0 do
                  S.wait m c
                done;
                decr buf)
          done
        in
        let producer () =
          for _ = 1 to 500 do
            S.with_lock m (fun () ->
                incr buf;
                S.signal c)
          done
        in
        let cs = List.init 3 (fun _ -> S.fork consumer) in
        let ps = List.init 3 (fun _ -> S.fork producer) in
        List.iter S.join (cs @ ps))
  in
  let t0 = Unix.gettimeofday () in
  let rep =
    Threads_model.Conformance.check Spec_core.Threads_interface.final trace
  in
  let dt = Unix.gettimeofday () -. t0 in
  let t =
    Table.create ~title:"E9b: conformance checking a long real trace"
      ~aligns:[ Table.Left; Table.Right ]
      [ "metric"; "value" ]
  in
  Table.add_row t [ "events in trace"; Table.cell_int rep.events ];
  Table.add_row t
    [ "violations"; Table.cell_int (List.length rep.errors) ];
  Table.add_row t
    [ "events / second";
      Table.cell_float ~decimals:0 (float_of_int rep.events /. dt) ];
  Table.print t

let run () =
  checker_scaling ();
  conformance_throughput ();
  print_endline
    "Shape check: exhaustive spec-level checking is interactive-speed for\n\
     scenario sizes that exhibit every incident; long implementation\n\
     traces check with zero violations."

let experiment =
  {
    Exp.id = "E9";
    title = "Checkable documentation at scale";
    claim =
      "The specification can serve as the reference of choice: here it is \
       machine-checked against client scenarios and implementation traces \
       (Discussion).";
    run;
  }
