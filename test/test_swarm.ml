(* Swarm testing: randomly generated client programs run under random
   schedules; every run must terminate cleanly and its trace must conform
   to the formal specification.

   Generation lives in lib/gen (the generative chaos engine): programs
   are drawn per-policy over random object graphs — ordered lock subsets,
   bracketed semaphores, condition flags and producer/consumer tokens
   with root coverage, alert handshakes, interrupt-context V — and lifted
   into backend-generic workloads, so the same swarm drives every
   conforming backend: the simulator, the cooperative uniprocessor, and
   the OCaml 5 multicore implementation on real domains. *)

module Tid = Threads_util.Tid
module Rng = Threads_util.Rng
module Gen = Threads_gen
module Bk = Threads_backend.Backend

let backend name =
  match Bk.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %S not registered" name

(* One QCheck case = one generation seed; program, schedule seed and
   policy all derive from it deterministically, so a failure's printed
   seed fully reproduces the run. *)
let scenario_of ~policies b base =
  let rng = Rng.cell ~base ~index:0 in
  let policy = policies.(base mod Array.length policies) in
  let program =
    Gen.Generate.program ~policy ~features:b.Bk.supports rng
  in
  {
    Gen.Oracle.program;
    policy;
    seed = Rng.int rng 1_000_000;
    plan = None;
  }

let swarm_prop ?policies:(ps = Gen.Generate.[| Safe; Free; Irq |]) name
    ~count =
  let b = backend name in
  let scenario_of = scenario_of ~policies:ps in
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs conform (%s)" name)
    ~count
    (QCheck.make
       QCheck.Gen.(int_range 0 1_000_000)
       ~print:(fun base ->
         let s = scenario_of b base in
         Format.asprintf "base=%d policy=%s seed=%d@.%a" base
           (Gen.Generate.policy_name s.Gen.Oracle.policy)
           s.Gen.Oracle.seed Gen.Prog.render s.Gen.Oracle.program))
    (fun base ->
      match Gen.Oracle.run b (scenario_of b base) with
      | Gen.Oracle.Pass _ -> true
      | Gen.Oracle.Fail (kind, detail) ->
        QCheck.Test.fail_reportf "%s: %s (%s)" name
          (Gen.Oracle.kind_name kind) detail)

let prop_swarm_sim = swarm_prop "sim" ~count:120
let prop_swarm_uniproc = swarm_prop "uniproc" ~count:120

(* Real domains per run, and no deadlock detector on hardware: keep the
   count modest and generate only deadlock-free-by-construction programs
   (a Free-policy deadlock would hang the suite, not fail it). *)
let prop_swarm_multicore =
  swarm_prop "multicore" ~policies:[| Gen.Generate.Safe |] ~count:40

(* Balanced producer/consumer with random parameters: conformance plus
   item accounting. *)
let gen_pc =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (p, c, ipc, cap, seed) ->
      Printf.sprintf "producers=%d consumers=%d items/c=%d cap=%d seed=%d" p c
        ipc cap seed)
    (int_range 1 3 >>= fun producers ->
     int_range 1 3 >>= fun consumers ->
     int_range 1 5 >>= fun items_per_consumer ->
     int_range 1 3 >>= fun cap ->
     int_range 0 999 >>= fun seed ->
     return (producers, consumers, items_per_consumer, cap, seed))

let prop_pc_sim =
  QCheck.Test.make ~name:"random producer/consumer conforms" ~count:120 gen_pc
    (fun (producers, consumers, items_per_consumer, cap, seed) ->
      (* keep totals divisible: each producer makes consumers*ipc /
         producers... instead: total = lcm-free, producers produce
         total/producers with remainder to the first producer *)
      let total = consumers * items_per_consumer in
      let report, trace =
        Taos_threads.Api.run_traced ~seed (fun sync ->
            let module S =
              (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
            in
            let m = S.mutex () in
            let nonempty = S.condition () in
            let nonfull = S.condition () in
            let buf = ref 0 in
            let eaten = ref 0 in
            let producer n () =
              for _ = 1 to n do
                S.with_lock m (fun () ->
                    while !buf >= cap do
                      S.wait m nonfull
                    done;
                    incr buf;
                    S.signal nonempty)
              done
            in
            let consumer () =
              for _ = 1 to items_per_consumer do
                S.with_lock m (fun () ->
                    while !buf = 0 do
                      S.wait m nonempty
                    done;
                    decr buf;
                    incr eaten;
                    S.signal nonfull)
              done
            in
            let base = total / producers in
            let extra = total - (base * producers) in
            let ps =
              List.init producers (fun i ->
                  S.fork (producer (base + if i = 0 then extra else 0)))
            in
            let cs = List.init consumers (fun _ -> S.fork consumer) in
            List.iter S.join (ps @ cs);
            if !eaten <> total then failwith "accounting")
      in
      (match report.Firefly.Interleave.verdict with
      | Firefly.Interleave.Completed -> ()
      | _ -> failwith "did not complete");
      Threads_model.Conformance.ok
        (Threads_model.Conformance.check
           Spec_core.Threads_interface.final trace))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "swarm",
    [
      q prop_swarm_sim;
      q prop_swarm_uniproc;
      q prop_swarm_multicore;
      q prop_pc_sim;
    ] )
