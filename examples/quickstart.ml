(* Quickstart: a bounded buffer with Mutex + two Conditions, the canonical
   monitor idiom of the paper's Informal Description, written once against
   the backend-generic SYNC signature and executed on all three backends:
   the Firefly simulation, the co-routine version, and real OCaml 5
   domains.

     dune exec examples/quickstart.exe *)

module Tid = Threads_util.Tid

(* The client program: note the while-loops around Wait — return from Wait
   is only a hint that must be confirmed. *)
module Bounded_buffer (S : Taos_threads.Sync_intf.SYNC) = struct
  type t = {
    m : S.mutex;
    nonempty : S.condition;
    nonfull : S.condition;
    items : int Queue.t;
    capacity : int;
  }

  let create capacity =
    {
      m = S.mutex ();
      nonempty = S.condition ();
      nonfull = S.condition ();
      items = Queue.create ();
      capacity;
    }

  let put buf x =
    S.with_lock buf.m (fun () ->
        while Queue.length buf.items >= buf.capacity do
          S.wait buf.m buf.nonfull
        done;
        Queue.add x buf.items;
        S.signal buf.nonempty)

  let get buf =
    S.with_lock buf.m (fun () ->
        while Queue.is_empty buf.items do
          S.wait buf.m buf.nonempty
        done;
        let x = Queue.take buf.items in
        S.signal buf.nonfull;
        x)

  let run ~items ~producers ~consumers =
    let buf = create 3 in
    let sum = ref 0 and produced = ref 0 in
    let m_sum = S.mutex () in
    let producer _ =
      S.fork (fun () ->
          for i = 1 to items do
            put buf i
          done)
    in
    let consumer _ =
      S.fork (fun () ->
          for _ = 1 to items * producers / consumers do
            let x = get buf in
            S.with_lock m_sum (fun () ->
                sum := !sum + x;
                incr produced)
          done)
    in
    let ps = List.init producers producer in
    let cs = List.init consumers consumer in
    List.iter S.join (ps @ cs);
    (!sum, !produced)
end

let expect name (sum, n) ~items ~producers =
  let want_n = items * producers in
  let want_sum = producers * (items * (items + 1) / 2) in
  Printf.printf "%-22s consumed %d items, sum %d  (%s)\n" name n sum
    (if n = want_n && sum = want_sum then "ok" else "MISMATCH")

let () =
  let items = 50 and producers = 2 and consumers = 2 in
  (* 1. Firefly simulation: deterministic, schedule-controlled. *)
  let result = ref (0, 0) in
  let report, trace =
    Taos_threads.Api.run_traced ~seed:42 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
        in
        let module B = Bounded_buffer (S) in
        result := B.run ~items ~producers ~consumers)
  in
  expect "firefly simulator:" !result ~items ~producers;
  Printf.printf "  (simulated: %d instructions, %d trace events)\n"
    (Firefly.Machine.total_instructions report.Firefly.Interleave.machine)
    (List.length trace);

  (* ... and because the simulator publishes every atomic action, we can
     verify the whole run against the paper's formal specification: *)
  let conf =
    Threads_model.Conformance.check Spec_core.Threads_interface.final trace
  in
  Printf.printf "  conformance vs formal spec: %s\n"
    (if Threads_model.Conformance.ok conf then "every event admitted"
     else "VIOLATION");

  (* 2. Co-routine backend (the paper's single-process Unix version). *)
  let result = ref (0, 0) in
  ignore
    (Taos_threads.Uniproc.run (fun sync ->
         let module S =
           (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
         in
         let module B = Bounded_buffer (S) in
         result := B.run ~items ~producers ~consumers));
  expect "co-routine backend:" !result ~items ~producers;

  (* 3. Real parallelism (OCaml 5 domains). *)
  let module B = Bounded_buffer (Threads_multicore.Multicore.Sync) in
  let result =
    Threads_multicore.Multicore.run (fun () ->
        B.run ~items ~producers ~consumers)
  in
  expect "multicore backend:" result ~items ~producers
