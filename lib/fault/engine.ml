module M = Firefly.Machine
module Tid = Threads_util.Tid
module Rng = Threads_util.Rng

type verdict = Completed | Deadlock of Tid.t list | Step_budget

type outcome = {
  verdict : verdict;
  steps : int;
  machine : M.t;
  injected : M.fault list;
}

let default_budget = 300_000

let pp_verdict ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlock ts ->
    Format.fprintf ppf "deadlock [%s]"
      (String.concat "," (List.map (Printf.sprintf "t%d") ts))
  | Step_budget -> Format.pp_print_string ppf "step budget exhausted"

let run ?strategy ?(max_steps = default_budget) ?(seed = 0) ~(plan : Plan.t)
    build =
  let strategy =
    match strategy with Some s -> s | None -> Firefly.Sched.random seed
  in
  let m = M.create ~seed () in
  M.set_chaos_active m true;
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
  let live_tids () =
    List.filter
      (fun tid ->
        match M.status m tid with
        | M.Runnable | M.Blocked -> true
        | M.Finished | M.Failed _ -> false)
      (M.all_tids m)
  in
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
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
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
        match take count (live_tids ()) with
        | [] -> M.record_fault m "alert storm skipped: no live threads"
        | targets ->
          spawn_injector
            (Printf.sprintf "alert storm on %s"
               (String.concat "," (List.map (Printf.sprintf "t%d") targets)))
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
  let rec loop () =
    if !steps >= max_steps then Step_budget
    else begin
      fire_triggers ();
      M.flush_delayed m;
      M.fire_due_timers m;
      let rs = M.runnable m in
      let unstalled =
        List.filter
          (fun tid ->
            match Hashtbl.find_opt stalls tid with
            | Some until when !steps < until -> false
            | Some _ ->
              Hashtbl.remove stalls tid;
              true
            | None -> true)
          rs
      in
      match (rs, unstalled) with
      | [], _ -> (
        let horizon =
          match (M.next_timer m, M.next_delayed m) with
          | None, None -> None
          | (Some _ as a), None | None, (Some _ as a) -> a
          | Some a, Some b -> Some (min a b)
        in
        match horizon with
        | Some d ->
          (* Quiescent with a timer or held wakeup outstanding: jump the
             clock there (discrete-event idle time) and deliver. *)
          M.advance_clock m ~to_:d;
          incr steps;
          loop ()
        | None ->
          if !pending <> [] then begin
            (* Fully blocked but plan triggers remain (e.g. a spurious
               wakeup aimed at exactly this situation): let steps run
               forward until they fire. *)
            incr steps;
            loop ()
          end
          else if M.live m then Deadlock (M.blocked m)
          else Completed)
      | _ :: _, [] ->
        (* Every runnable thread is stalled: the processors idle. *)
        incr steps;
        loop ()
      | _, rs' ->
        let tid = Firefly.Sched.choose strategy m rs' in
        ignore (M.step m tid);
        incr steps;
        loop ()
    end
  in
  let verdict = loop () in
  { verdict; steps = !steps; machine = m; injected = M.faults m }
