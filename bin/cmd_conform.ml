(* repro conform — one backend's traces replayed against the spec;
   repro diff — every backend side by side on one workload. *)

open Cmdliner
module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck

let pp_verdicts vs =
  String.concat ", "
    (List.map (fun (v, n) -> Printf.sprintf "%dx %s" n v) vs)

let pp_observables = function
  | [] -> "-"
  | obs -> String.concat " / " obs

let summary_row (s : Cc.summary) =
  if s.skipped then
    [ s.backend.Bk.name; "skipped"; "-"; "-"; "-" ]
  else
    [
      s.backend.Bk.name;
      pp_verdicts (Cc.verdicts s);
      pp_observables (Cc.observables s);
      Threads_util.Table.cell_int (Cc.events s);
      Threads_util.Table.cell_int (Cc.violations s);
    ]

let conform =
  let backend =
    Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"B"
           ~doc:"Backend to check (sim, uniproc, naive, hoare, multicore)")
  in
  let seeds =
    Arg.(value & opt Cli.positive 5 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per workload")
  in
  let run backend workload seeds out jobs fleet =
    let b = Cli.backend backend in
    let wls = Cli.workloads workload in
    let cells wl = if Bk.supports b wl then seeds else 0 in
    let total = List.fold_left (fun n wl -> n + cells wl) 0 wls in
    let emit, finish = Cli.make_emit out in
    let failed = ref false in
    Cli.with_fleet ~label:("conform " ^ b.Bk.name) ~jobs ~total fleet
      (fun fl ->
        List.iter
          (fun (wl : Wl.t) ->
            fl.Cli.phase wl.Wl.name ~cells:(cells wl);
            let s = Cc.conform ?telemetry:fl.Cli.telemetry ~jobs b wl ~seeds in
            if s.Cc.skipped then
              emit
                (Printf.sprintf
                   "%-10s skipped (backend lacks a required feature)\n"
                   wl.name)
            else begin
              emit
                (Printf.sprintf
                   "%-10s %d seeds | %s | observable: %s | %d events, %d \
                    violations\n"
                   wl.name seeds
                   (pp_verdicts (Cc.verdicts s))
                   (pp_observables (Cc.observables s))
                   (Cc.events s) (Cc.violations s));
              (match Cc.first_error s with
              | Some e when not b.Bk.conforming ->
                emit
                  (Printf.sprintf
                     "           (expected divergence) first: %s\n" e)
              | Some e ->
                emit (Printf.sprintf "           FIRST VIOLATION: %s\n" e)
              | None -> ());
              if b.Bk.conforming && not (Cc.ok s) then failed := true
            end)
          wls);
    if !failed then
      emit
        (Printf.sprintf "FAIL: %s claims conformance but diverged\n"
           b.Bk.name);
    finish ();
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Run backend-generic workloads on one backend, replay its \
          linearization-point trace against the formal specification, and \
          report violations (non-zero exit if a conforming backend \
          diverges)")
    Term.(
      const run $ backend $ Cli.workloads_arg $ seeds $ Cli.out_arg
      $ Cli.jobs_arg $ Cli.fleet_term)

let diff =
  let seeds =
    Arg.(value & opt Cli.positive 3 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of seeds (schedules) per backend")
  in
  let run workload seeds out jobs fleet =
    let wls = Cli.workloads workload in
    let cells wl =
      seeds * List.length (List.filter (fun b -> Bk.supports b wl) Bk.all)
    in
    let total = List.fold_left (fun n wl -> n + cells wl) 0 wls in
    let emit, finish = Cli.make_emit out in
    let failed = ref false in
    Cli.with_fleet ~label:"diff" ~jobs ~total fleet (fun fl ->
        List.iter
          (fun (wl : Wl.t) ->
            fl.Cli.phase wl.Wl.name ~cells:(cells wl);
            let summaries = Cc.diff ?telemetry:fl.Cli.telemetry ~jobs wl ~seeds in
            let t =
              Threads_util.Table.create
                ~title:
                  (Printf.sprintf "diff: %s (%s; %d seeds per backend)"
                     wl.name wl.description seeds)
                [ "backend"; "verdicts"; "observable"; "events"; "violations" ]
            in
            List.iter
              (fun s -> Threads_util.Table.add_row t (summary_row s))
              summaries;
            emit (Threads_util.Table.render t);
            List.iter
              (fun (s : Cc.summary) ->
                if s.backend.Bk.conforming && not s.skipped && not (Cc.ok s)
                then begin
                  failed := true;
                  emit
                    (Printf.sprintf "FAIL: %s diverged on %s%s\n"
                       s.backend.Bk.name wl.name
                       (match Cc.first_error s with
                       | Some e -> ": " ^ e
                       | None -> ""))
                end)
              summaries;
            emit "\n")
          wls);
    emit
      "Expected divergence: naive deadlocks the broadcast workload (E5: \
       coalescing Vs strand waiters); hoare completes but accrues one \
       Resume violation per effective signal (E8: signal hands the mutex \
       over, so Resume's WHEN m = NIL fails).\n";
    finish ();
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Run one workload on every registered backend and compare \
          verdicts, observables and spec-conformance side by side; the \
          deliberately-broken baselines must diverge exactly where E5/E8 \
          predict (non-zero exit if a conforming backend diverges)")
    Term.(
      const run $ Cli.workloads_arg $ seeds $ Cli.out_arg $ Cli.jobs_arg
      $ Cli.fleet_term)
