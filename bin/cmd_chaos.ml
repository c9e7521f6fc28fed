(* repro chaos — fault injection x spec conformance: deterministic fault
   plans replayed against a backend while its trace is checked. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck

let cmd =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Chaos-capable backend (sim, uniproc)")
  in
  let plans =
    Arg.(value & opt Cli.positive Threads_fault.Plan.families
         & info [ "plans" ] ~docv:"N"
             ~doc:"Number of fault plans (ids 0..N-1; 7 cycles every family)")
  in
  let seeds =
    Arg.(value & opt Cli.positive 3 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per plan")
  in
  let run backend workload plans seeds out jobs fleet =
    let b = Cli.backend backend in
    if b.Bk.chaos = None then begin
      Printf.eprintf "backend %s has no chaos driver (chaos-capable: %s)\n"
        b.Bk.name
        (String.concat ", "
           (List.filter_map
              (fun (b : Bk.t) ->
                if b.Bk.chaos <> None then Some b.Bk.name else None)
              Bk.all));
      exit 1
    end;
    let failed = ref false in
    (* Stream the report: each run is rendered and dropped as its turn
       comes, so memory stays flat however large the matrix is. *)
    let emit, finish = Cli.make_emit out in
    let wls = Cli.workloads workload in
    let cells wl = if Bk.supports b wl then plans * seeds else 0 in
    let total = List.fold_left (fun n wl -> n + cells wl) 0 wls in
    Cli.with_fleet ~label:("chaos " ^ b.Bk.name) ~jobs ~total fleet
      (fun fl ->
        List.iter
          (fun (wl : Wl.t) ->
            fl.Cli.phase wl.Wl.name ~cells:(cells wl);
            let t =
              Cc.chaos_stream ?telemetry:fl.Cli.telemetry ~jobs ~emit b wl
                ~plans ~seeds
            in
            if t.Cc.ct_skipped then
              emit
                (Printf.sprintf
                   "%-10s skipped (backend lacks a required feature)\n"
                   wl.name)
            else begin
              emit
                (Printf.sprintf "%-10s %d plans x %d seeds | %s\n" wl.name
                   plans seeds
                   (String.concat ", "
                      (List.map
                         (fun (k, n) -> Printf.sprintf "%dx %s" n k)
                         t.Cc.ct_classes)));
              if not (Cc.chaos_totals_ok t) then begin
                failed := true;
                List.iter
                  (fun (plan, seed, cls) ->
                    emit
                      (Printf.sprintf "           FAIL %s plan#%d seed=%d\n"
                         (Cc.class_name cls) plan seed))
                  t.Cc.ct_failures
              end
            end)
          wls);
    if !failed then
      emit
        (Printf.sprintf
           "FAIL: %s left a run unexplained or in violation under injection\n"
           b.Bk.name);
    finish ();
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay deterministic fault plans (delayed/dropped wakeups, \
          spurious wakeups, alert storms, stalls, crash-stops, contention \
          bursts) against a backend while checking its trace against the \
          formal specification.  Every run must either complete conformant \
          or terminate with a diagnosed fault report naming the injected \
          fault — never a silent hang or a spec violation (non-zero exit \
          otherwise).  Equal (backend, workload, plan, seed) produce \
          byte-identical reports")
    Term.(
      const run $ backend $ Cli.workloads_arg $ plans $ seeds $ Cli.out_arg
      $ Cli.jobs_arg $ Cli.fleet_term)
