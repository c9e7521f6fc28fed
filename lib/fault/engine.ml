module M = Firefly.Machine
module Tid = Threads_util.Tid
module Rng = Threads_util.Rng

type outcome = {
  verdict : Firefly.Interleave.verdict;
  steps : int;
  machine : M.t;
  injected : M.fault list;
}

let tids ts = String.concat "," (List.map (Printf.sprintf "t%d") ts)

let pp_verdict m ppf : Firefly.Interleave.verdict -> unit = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlock ts -> Format.fprintf ppf "deadlock [%s]" (tids ts)
  | Step_limit -> Format.pp_print_string ppf "step budget exhausted"
  | Livelock { spinner; word; holder; _ } ->
    Format.fprintf ppf "livelock: t%d spins on %s held by %s" spinner
      (M.word_name m word)
      (match holder with
      | Some h -> Printf.sprintf "t%d" h
      | None -> "no recorded owner")

let run ?(seed = 0) ~(plan : Plan.t) build =
  let strategy = Firefly.Sched.random seed in
  let m = M.create () in
  (* Spin-lock backoff only under a plan that injects something: an
     empty plan is a plain run. *)
  if plan.Plan.actions <> [] then M.set_chaos_active m true;
  (* The step count at the top of the current iteration, for the
     wakeup filter and the triggers. *)
  let steps = ref 0 in
  (* Wakeup-interrupt filter, driven by the Delay/Drop triggers below.
     With no plan action armed it answers Deliver for every wakeup. *)
  let drop_budget = ref 0 in
  let delay_until = ref (-1) in
  let delay_by = ref 0 in
  M.set_wake_filter m
    (Some
       (fun _tid ->
         if !drop_budget > 0 then begin
           decr drop_budget;
           M.Drop
         end
         else if !steps <= !delay_until then M.Delay !delay_by
         else M.Deliver));
  build m;
  let rng = Rng.create (seed lxor (plan.Plan.id * 65599)) in
  let stalls : (Tid.t, int) Hashtbl.t = Hashtbl.create 4 in
  let pending =
    ref
      (List.stable_sort
         (fun a b -> compare (Plan.trigger a) (Plan.trigger b))
         plan.Plan.actions)
  in
  let live_tids () = List.merge compare (M.runnable m) (M.blocked m) in
  (* Injected work (spurious signals, alert storms, contention bursts)
     runs as real simulated threads through the package's registered
     chaos hooks, so every instruction it executes is on the record. *)
  let spawn_injector desc f =
    ignore
      (M.spawn_root m (fun () ->
           M.Probe.inject_fault desc;
           f ()))
  in
  let run_hook ~suffix ~desc arg =
    match
      List.filter (fun (n, _) -> String.ends_with ~suffix n) (M.chaos_hooks m)
    with
    | [] ->
      M.record_fault m
        (Printf.sprintf "%s skipped: no *%s hook registered" desc suffix)
    | hooks ->
      let name, f = List.nth hooks (Rng.int rng (List.length hooks)) in
      spawn_injector (Printf.sprintf "%s via %s" desc name) (fun () -> f arg)
  in
  let apply a =
    match a with
    | Plan.Delay_wakeups { width; delay; _ } ->
      delay_until := !steps + width;
      delay_by := delay;
      M.record_fault m
        (Printf.sprintf "wakeup-delay window: %d steps, +%d cycles" width
           delay)
    | Plan.Drop_wakeup _ ->
      incr drop_budget;
      M.record_fault m "wakeup-drop armed"
    | Plan.Spurious_wakeup _ ->
      run_hook ~suffix:".spurious" ~desc:"spurious wakeup" 1
    | Plan.Alert_storm { count; _ } -> (
      match List.filter (fun (n, _) -> n = "pkg.alert") (M.chaos_hooks m) with
      | [] -> M.record_fault m "alert storm skipped: no pkg.alert hook"
      | (_, f) :: _ -> (
        match List.filteri (fun i _ -> i < count) (live_tids ()) with
        | [] -> M.record_fault m "alert storm skipped: no live threads"
        | targets ->
          spawn_injector
            (Printf.sprintf "alert storm on %s" (tids targets))
            (fun () -> List.iter f targets)))
    | Plan.Stall { tid; duration; _ } ->
      if List.mem tid (live_tids ()) then begin
        Hashtbl.replace stalls tid (!steps + duration);
        M.record_fault m
          (Printf.sprintf "stall of t%d for %d steps" tid duration)
      end
      else
        M.record_fault m (Printf.sprintf "stall skipped: t%d not live" tid)
    | Plan.Crash_stop { tid; _ } ->
      if List.mem tid (live_tids ()) then
        M.kill m tid ~reason:"injected crash-stop"
      else
        M.record_fault m
          (Printf.sprintf "crash-stop skipped: t%d not live" tid)
    | Plan.Contention_burst { count; _ } ->
      run_hook ~suffix:".contend"
        ~desc:(Printf.sprintf "contention burst x%d" count)
        count
  in
  let rec fire_triggers () =
    match !pending with
    | a :: rest when Plan.trigger a <= !steps ->
      pending := rest;
      apply a;
      fire_triggers ()
    | _ -> ()
  in
  (* Stalls end by step count; only while one is active does the pick
     leave threads out. *)
  let unstalled tid = not (Hashtbl.mem stalls tid) in
  let ongoing _ until = if !steps < until then Some until else None in
  let r =
    Firefly.Interleave.drive ~max_steps:300_000
      {
        before =
          (fun n ->
            steps := n;
            fire_triggers ());
        pick =
          (fun () ->
            Hashtbl.filter_map_inplace ongoing stalls;
            if Hashtbl.length stalls = 0 then Firefly.Sched.choose strategy m
            else
              (* -1 when every runnable thread is stalled: idle *)
              Firefly.Sched.choose ~among:unstalled strategy m);
        (* Certify only once the plan can no longer act. *)
        after =
          (fun tid ~cost:_ ~steps ->
            if !pending = [] && Hashtbl.length stalls = 0 then
              Firefly.Interleave.certificate m strategy tid ~at_step:steps
            else None);
        (* Fully blocked but plan triggers remain (e.g. a spurious wakeup
           aimed at exactly this situation): idle until they fire. *)
        waiting = (fun () -> !pending <> []);
      }
      m
  in
  { verdict = r.verdict; steps = r.steps; machine = m; injected = M.faults m }
