module Tid = Threads_util.Tid

type verdict =
  | Completed
  | Deadlock of Tid.t list
  | Step_limit
  | Livelock of {
      spinner : Tid.t;
      word : int;
      holder : Tid.t option;
      at_step : int;
    }

type report = { verdict : verdict; steps : int; machine : Machine.t }

(* The await reduction for declared spins.  While the runnable set stays
   the same, the strategy only ever picks among its candidates; if each of
   them is in a declared spin on a word that is 1, every future step is a
   failed TAS (or its counter bump, or a capped backoff's tick) that
   changes nothing — and with no timer armed and no delayed wakeup
   pending, nothing else can change the runnable set either. *)
let rec all_stuck m ~intr from =
  match Machine.nth_runnable m ~from ~intr None 0 with
  | -1 -> true
  | tid -> (
    match Machine.spin_word m tid with
    | Some w -> Machine.word_value m w = 1 && all_stuck m ~intr (tid + 1)
    | None -> false)

let certificate m strategy spinner ~at_step =
  match Machine.spin_word m spinner with
  | None -> None
  | Some _ when Machine.timers_pending m || Machine.delayed_pending m -> None
  | Some word ->
    if all_stuck m ~intr:(Sched.interrupts_only strategy m) 0 then
      Some
        (Livelock
           { spinner; word; holder = Machine.word_owner m word; at_step })
    else None

let at_rest m =
  if Machine.live m then Deadlock (Machine.blocked m) else Completed

type hooks = {
  before : int -> unit;
  pick : unit -> Tid.t;
  after : Tid.t -> cost:int -> steps:int -> verdict option;
  waiting : unit -> bool;
}

let drive ~max_steps h m =
  let steps = ref 0 in
  let rec loop () =
    if !steps >= max_steps then Step_limit
    else begin
      h.before !steps;
      Machine.flush_delayed m;
      Machine.fire_due_timers m;
      if Machine.runnable_count m = 0 then
        (* At rest with a timer or a held wakeup outstanding: jump the
           clock there (discrete-event idle time); the next iteration
           delivers it. *)
        match Machine.next_due m with
        | Some d ->
          Machine.advance_clock m ~to_:d;
          idle ()
        | None -> if h.waiting () then idle () else at_rest m
      else
        let tid = h.pick () in
        if tid < 0 then idle ()
        else
          let cost = Machine.step m tid in
          incr steps;
          match h.after tid ~cost ~steps:!steps with
          | None -> loop ()
          | Some v -> v
    end
  and idle () =
    incr steps;
    loop ()
  in
  let verdict = loop () in
  { verdict; steps = !steps; machine = m }

let run ?(max_steps = 1_000_000) ?(certify = false) ~strategy build =
  let m = Machine.create () in
  build m;
  drive ~max_steps
    {
      before = ignore;
      pick = (fun () -> Sched.choose strategy m);
      after =
        (if certify then fun tid ~cost:_ ~steps ->
           certificate m strategy tid ~at_step:steps
         else fun _ ~cost:_ ~steps:_ -> None);
      waiting = (fun () -> false);
    }
    m
