(** E4 — the wakeup-waiting race and Signal unblocking several threads.

    Paper: "It is possible (though unlikely) that Signal will acquire the
    spin-lock while more than one thread is trying to acquire it in Wait;
    if so, Signal will unblock all such threads."  And on the spec side:
    "We cannot strengthen Signal's postcondition: although our
    implementation of Signal usually unblocks just one waiting thread, it
    may unblock more."

    We race several Wait calls against a Signal across thousands of seeds
    and classify each Signal event by how many threads it removed.  Every
    run is also conformance-checked: the weak postcondition
    [(c_post = {{}}) | (c_post SUBSET c)] covers all observed behaviours. *)

module Table = Threads_util.Table

let seeds = 3000

let run () =
  let histogram = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace histogram k
      (1 + Option.value (Hashtbl.find_opt histogram k) ~default:0)
  in
  let nonconforming = ref 0 in
  for seed = 0 to seeds - 1 do
    let _, trace =
      Taos_threads.Api.run_traced ~seed (fun sync ->
          let module S =
            (val sync : Taos_threads.Sync_intf.SYNC
               with type thread = Threads_util.Tid.t)
          in
          let m = S.mutex () in
          let c = S.condition () in
          let flag = ref false in
          let waiter () =
            S.with_lock m (fun () ->
                while not !flag do
                  S.wait m c
                done)
          in
          let ws = List.init 3 (fun _ -> S.fork waiter) in
          let signaller () =
            S.with_lock m (fun () -> flag := true);
            (* Keep signalling until all waiters drained. *)
            S.signal c
          in
          let s = S.fork signaller in
          S.join s;
          (* Finish the run: broadcast to release any still-parked
             waiters (flag is already true). *)
          S.broadcast c;
          List.iter S.join ws)
    in
    List.iter
      (fun (e : Spec_trace.event) ->
        match e.action with
        | Signal { removed; _ } -> bump (List.length removed)
        | _ -> ())
      trace;
    if
      not
        (Threads_model.Conformance.ok
           (Threads_model.Conformance.check
              Spec_core.Threads_interface.final trace))
    then incr nonconforming
  done;
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E4: threads removed per Signal (%d seeded runs)"
           seeds)
      [ "threads unblocked"; "signals"; "fraction" ]
  in
  let total = Hashtbl.fold (fun _ n acc -> acc + n) histogram 0 in
  List.iter
    (fun k ->
      match Hashtbl.find_opt histogram k with
      | Some n ->
        Table.add_row t
          [
            Table.cell_int k;
            Table.cell_int n;
            Table.cell_pct (float_of_int n /. float_of_int total);
          ]
      | None -> ())
    [ 0; 1; 2; 3; 4 ];
  Table.print t;
  Printf.printf "conformance violations across all runs: %d (expect 0)\n"
    !nonconforming;
  print_endline
    "Shape check: most Signals unblock exactly one thread; a small but\n\
     non-zero fraction unblock several (the race window), which only the\n\
     weak postcondition admits."

let experiment =
  {
    Exp.id = "E4";
    title = "Signal may unblock more than one thread";
    claim =
      "It is possible (though unlikely) that Signal will unblock all the \
       threads racing in Wait; the specification cannot be strengthened \
       (Implementation / Formal Specification).";
    run;
  }
