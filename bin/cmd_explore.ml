(* repro explore — systematic schedule exploration of the small
   scenarios: DPOR, exhaustive DFS, or both cross-checked. *)

open Cmdliner
module Ex = Firefly.Explore
module Sc = Threads_harness.Explore_scenarios

(* A percentage from 0 to 100; nan, which no comparison fails, is out. *)
let percent =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok p when not (p >= 0. && p <= 100.) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected 0 to 100" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let cmd =
  let scenario =
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"S"
           ~doc:"Scenario name, or $(b,all); see the list on error")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("dpor", `Dpor); ("dfs", `Dfs); ("both", `Both) ]) `Dpor
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,dpor) (sleep-set dynamic partial-order reduction), \
             $(b,dfs) (plain exhaustive search) or $(b,both) (run both \
             and compare their violation sets)")
  in
  let max_runs =
    Arg.(value & opt Cli.positive 1_000_000 & info [ "max-runs" ] ~docv:"N"
           ~doc:"Execution budget per search (per frozen prefix for DPOR)")
  in
  let min_prune =
    Arg.(value & opt (some percent) None & info [ "min-prune" ] ~docv:"PCT"
           ~doc:
             "With --mode=both: fail unless DPOR explores at least \
              $(docv)% fewer executions than DFS")
  in
  let run scenario mode max_runs min_prune format out jobs fleet =
    if min_prune <> None && mode <> `Both then begin
      prerr_string "--min-prune needs --mode=both\n";
      exit 1
    end;
    (* Plain DFS runs off the executor: a fleet collector would see no
       cell and report an empty run. *)
    if mode = `Dfs && Cli.fleet_requested fleet then begin
      prerr_string
        "--progress, --fleet and --fleet-trace need --mode=dpor or \
         --mode=both\n";
      exit 1
    end;
    (* Branch depth of the exhaustive frontier split handed to the DPOR
       workers; independent of --jobs, so the results are too. *)
    let split = 2 in
    let scenarios =
      Cli.lookup ~what:"scenario" ~all:Sc.all
        ~names:(List.map (fun (s : Sc.t) -> s.Sc.name) Sc.all)
        (Cli.one Sc.find) scenario
    in
    let failed = ref false in
    let fail fmt = Printf.ksprintf (fun m -> failed := true;
        Printf.eprintf "FAIL: %s\n" m) fmt
    in
    let t =
      Threads_util.Table.create
        ~aligns:[ Threads_util.Table.Left; Threads_util.Table.Right;
                  Threads_util.Table.Right; Threads_util.Table.Right;
                  Threads_util.Table.Right; Threads_util.Table.Left ]
        ~title:
          (Printf.sprintf "explore: %d worker domain(s), frontier split at \
                           %d branch(es)" jobs split)
        [ "scenario"; "dfs execs"; "dpor execs"; "sleep-pruned"; "prune";
          "violations" ]
    in
    let records = ref [] in
    (* The plain DFS runs before the fleet collector's window opens, so
       the window times only the DPOR matrices it reports on. *)
    let dfss =
      List.map
        (fun (s : Sc.t) ->
          if mode = `Dpor then None
          else
            Some
              (Ex.explore ~max_depth:s.Sc.max_depth ~max_runs
                 ~build:s.Sc.build s.Sc.check))
        scenarios
    in
    Cli.with_fleet ~label:"explore" ~jobs ~total:0 fleet (fun fl ->
    List.iter2
      (fun (s : Sc.t) dfs ->
        let progress =
          Option.map
            (fun c (st : Ex.dpor_stats) ->
              Obs.Fleet.explore_tick c ~scenario:s.Sc.name
                ~executions:st.Ex.executions
                ~sleep_blocked:st.Ex.sleep_blocked
                ~peak_depth:st.Ex.peak_depth)
            fl.Cli.collector
        in
        let dpor =
          if mode = `Dfs then None
          else
            Some
              (Ex.explore_dpor_parallel ~max_depth:s.Sc.max_depth ~max_runs
                 ~split_branches:split ~jobs
                 ~on_frontier:(fun cells -> fl.Cli.phase s.Sc.name ~cells)
                 ?progress
                 ?telemetry:fl.Cli.telemetry ~build:s.Sc.build s.Sc.check)
        in
        let found, complete =
          match (dpor, dfs) with
          | Some (v, st), _ | None, Some (v, st) -> (v, st.Ex.complete)
          | None, None -> assert false
        in
        let dfs_complete =
          match dfs with Some (_, st) -> st.Ex.complete | None -> true
        in
        (match dpor with
        | Some (_, ds) when not ds.Ex.complete ->
          fail "%s: DPOR exhausted its execution budget (%d)" s.Sc.name
            max_runs
        | _ -> ());
        if not dfs_complete then
          fail "%s: DFS exhausted its execution budget (%d)" s.Sc.name
            max_runs;
        (* an incomplete search proves nothing about the violation set *)
        if complete && found <> s.Sc.expect then
          fail "%s: violation set mismatch\n  found:    [%s]\n  expected: [%s]"
            s.Sc.name
            (String.concat "; " found)
            (String.concat "; " s.Sc.expect);
        (match (dpor, dfs) with
        | Some (dv, _), Some (fv, _) when dfs_complete ->
          if dv <> fv then
            fail "%s: DPOR and DFS disagree\n  dpor: [%s]\n  dfs:  [%s]"
              s.Sc.name (String.concat "; " dv) (String.concat "; " fv)
        | _ -> ());
        let execs = Option.map (fun (_, st) -> st.Ex.executions) in
        let dfs_execs = execs dfs and dpor_execs = execs dpor in
        (* Only a complete DFS counts the whole tree the ratio is over. *)
        let prune =
          match (dpor_execs, dfs_execs) with
          | Some d, Some f when f > 0 && dfs_complete ->
            Some (100. *. (1. -. (float_of_int d /. float_of_int f)))
          | _ -> None
        in
        (match (min_prune, prune) with
        | Some want, Some got when got < want ->
          fail "%s: DPOR pruned %.1f%%, below the required %.1f%%" s.Sc.name
            got want
        | _ -> ());
        let cell = function Some n -> string_of_int n | None -> "-" in
        Threads_util.Table.add_row t
          [ s.Sc.name; cell dfs_execs; cell dpor_execs;
            (match dpor with
            | Some (_, ds) -> string_of_int ds.Ex.sleep_blocked
            | None -> "-");
            (match prune with
            | Some p -> Printf.sprintf "%.1f%%" p
            | None -> "-");
            (if found = [] then "none"
             else String.concat " | " found) ];
        records :=
          Obs.Json.Obj
            ([ ("scenario", Obs.Json.String s.Sc.name);
               ("expected_ok", Obs.Json.Bool (complete && found = s.Sc.expect));
               ("violations",
                Obs.Json.Arr (List.map (fun v -> Obs.Json.String v) found)) ]
            @ (match dpor with
              | Some (_, ds) ->
                [ ("dpor_executions", Obs.Json.Int ds.Ex.executions);
                  ("dpor_sleep_blocked", Obs.Json.Int ds.Ex.sleep_blocked);
                  ("dpor_steps", Obs.Json.Int ds.Ex.dpor_steps);
                  ("dpor_peak_depth", Obs.Json.Int ds.Ex.peak_depth);
                  ("dpor_complete", Obs.Json.Bool ds.Ex.complete) ]
              | None -> [])
            @ (match dfs with
              | Some (_, st) ->
                [ ("dfs_executions", Obs.Json.Int st.Ex.executions);
                  ("dfs_steps", Obs.Json.Int st.Ex.dpor_steps);
                  ("dfs_complete", Obs.Json.Bool st.Ex.complete) ]
              | None -> [])
            @
            match prune with
            | Some p -> [ ("prune_pct", Obs.Json.Float p) ]
            | None -> [])
          :: !records)
      scenarios dfss);
    Cli.write_out ~out
      (match format with
      | `Json ->
        Obs.Json.to_string
          (Obs.Json.Obj
             [ ("schema_version", Obs.Json.Int 1);
               ("jobs", Obs.Json.Int jobs);
               ("split_branches", Obs.Json.Int split);
               ("scenarios", Obs.Json.Arr (List.rev !records)) ])
        ^ "\n"
      | `Table -> Threads_util.Table.render t);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore every schedule of a small scenario — the \
          wakeup-waiting window, Alert racing Signal, E5's semaphore-encoded \
          broadcast, E8's Hoare hand-off — with sleep-set dynamic \
          partial-order reduction driven by the simulator's per-step \
          footprints, splitting the schedule tree across --jobs worker \
          domains (results are independent of the worker count).  \
          --mode=both cross-checks the DPOR violation set against plain \
          exhaustive DFS and reports the pruning ratio; non-zero exit on \
          any mismatch with the scenario's pinned expectation")
    Term.(
      const run $ scenario $ mode $ max_runs $ min_prune $ Cli.format_arg
      $ Cli.out_arg $ Cli.jobs_arg $ Cli.fleet_term)
