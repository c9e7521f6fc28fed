module Tid = Threads_util.Tid

type verdict =
  | Completed
  | Deadlock of Tid.t list
  | Step_limit
  | Livelock of { spinner : Tid.t; word : int; holder : Tid.t; at_step : int }

type report = { verdict : verdict; steps : int; machine : Machine.t }

(* The await reduction for declared spins.  While the runnable set stays
   the same, the strategy only ever picks among its candidates; if each of
   them is in a declared spin on a word that is 1 and held by a thread
   outside that set, every future step is a failed TAS (or its counter
   bump) that changes nothing — and with no timer armed and no delayed
   wakeup pending, nothing else can change the runnable set either. *)
let certificate m strategy spinner ~at_step =
  match Machine.spin_word m spinner with
  | None -> None
  | Some _ when Machine.timers_pending m || Machine.delayed_pending m -> None
  | Some word -> (
    let cands = Sched.candidates strategy m (Machine.runnable m) in
    let stuck tid =
      match Machine.spin_word m tid with
      | None -> false
      | Some w -> (
        Machine.word_value m w = 1
        &&
        match Machine.word_owner m w with
        | Some holder -> not (List.mem holder cands)
        | None -> false)
    in
    match Machine.word_owner m word with
    | Some holder when List.for_all stuck cands ->
      Some (Livelock { spinner; word; holder; at_step })
    | _ -> None)

let at_rest m =
  if Machine.live m then Deadlock (Machine.blocked m) else Completed

let run ?(max_steps = 1_000_000) ?(certify = false) ?strategy ?(seed = 0)
    ?cost build =
  let strategy =
    match strategy with Some s -> s | None -> Sched.random seed
  in
  let m = Machine.create ~seed ?cost () in
  build m;
  let steps = ref 0 in
  let rec loop () =
    if !steps >= max_steps then Step_limit
    else begin
      (* No-op unless a thread armed a timed wait (then expiry is driven
         by the machine clock; at quiescence the clock jumps to the next
         deadline — discrete-event idle time). *)
      Machine.fire_due_timers m;
      match Machine.runnable m with
      | [] ->
        if Machine.advance_to_next_timer m then loop ()
        else at_rest m
      | rs -> (
        let tid = Sched.choose strategy m rs in
        ignore (Machine.step m tid);
        incr steps;
        match
          if certify then certificate m strategy tid ~at_step:!steps else None
        with
        | Some v -> v
        | None -> loop ())
    end
  in
  let verdict = loop () in
  { verdict; steps = !steps; machine = m }

let run_main ?max_steps ?strategy ?seed ?cost body =
  run ?max_steps ?strategy ?seed ?cost (fun m ->
      ignore (Machine.spawn_root m body))
