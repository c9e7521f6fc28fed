(* repro profile — a workload under the causal profiler: critical path,
   per-object attribution, top blockers, wait forensics. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Pf = Obs.Profile

let cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to profile (sim, uniproc, naive, hoare)")
  in
  let workload =
    Arg.(value & opt string "mutex" & info [ "workload" ] ~docv:"W"
           ~doc:"Workload name (mutex, condvar, semaphore, alert, broadcast)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("table", `Table); ("folded", `Folded); ("chrome", `Chrome);
               ("json", `Json) ])
          `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(docv) is $(b,table) (critical path, per-object attribution, \
             top blockers, wait decomposition), $(b,folded) (flamegraph \
             folded stacks), $(b,chrome) (trace-event JSON with per-state \
             thread tracks and a critical-path track) or $(b,json) \
             (structured report)")
  in
  let run backend workload seed format out =
    let b = Cli.backend backend in
    let wl = Cli.workload workload in
    if not (Bk.supports b wl) then begin
      Printf.eprintf "backend %s lacks a feature workload %s needs\n"
        b.Bk.name wl.Wl.name;
      exit 1
    end;
    match b.Bk.instrument with
    | Bk.No_instrument ->
      Printf.eprintf
        "backend %s is not profilable (no simulator machine to observe)\n"
        b.Bk.name;
      exit 1
    | Bk.Machine_access run ->
      let r = Pf.recorder () in
      let outcome, machine = run ~observe:(Pf.record r) ~seed wl in
      let p = Pf.of_run r machine in
      Cli.write_out ~out
        (match format with
        | `Table ->
          Printf.sprintf "backend %s, workload %s, seed %d: %s\n\n" b.Bk.name
            wl.Wl.name seed
            (Format.asprintf "%a" Bk.pp_verdict outcome.Bk.verdict)
          ^ Pf.render p
        | `Folded -> Pf.folded p
        | `Chrome -> Obs.Json.to_string (Pf.chrome p)
        | `Json -> Obs.Json.to_string (Pf.to_json p) ^ "\n")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the causal profiler: reconstruct every \
          thread's running / spin / runnable / blocked timeline from the \
          zero-sim-cost probe stream, extract the blocking-chain critical \
          path (whose step durations tile the makespan exactly), attribute \
          it per object, rank the top blockers, and report wait-for \
          forensics (deadlock cycles, threads still blocked at exit).  \
          Profiled runs are cycle- and schedule-identical to unprofiled \
          ones")
    Term.(const run $ backend $ workload $ seed $ format $ Cli.out_arg)
