module Tid = Threads_util.Tid

(* A strategy picks from the runnable threads that [among] accepts, by
   index in ascending tid order; the machine keeps the runnable counts,
   so nothing is built per pick. *)
type t = {
  pick : Machine.t -> (Tid.t -> bool) -> Tid.t;
  candidate : Machine.t -> Tid.t -> bool;
}

let everyone (_ : Tid.t) = true
let any _m _tid = true

let eligible m among tid = Machine.is_runnable m tid && among tid

let size m among =
  if among == everyone then Machine.runnable_count m
  else begin
    let n = ref 0 in
    for tid = 0 to Machine.thread_count m - 1 do
      if eligible m among tid then incr n
    done;
    !n
  end

(* The [i]th eligible thread from [tid] on — with [intr], the [i]th
   eligible interrupt-context one — or -1 past the last. *)
let rec scan m among ~intr tid i =
  if tid >= Machine.thread_count m then -1
  else if eligible m among tid && ((not intr) || Machine.is_interrupt m tid)
  then if i = 0 then tid else scan m among ~intr (tid + 1) (i - 1)
  else scan m among ~intr (tid + 1) i

let random seed =
  let rng = Threads_util.Rng.create seed in
  {
    pick =
      (fun m among ->
        match size m among with
        | 0 -> -1
        | n -> scan m among ~intr:false 0 (Threads_util.Rng.int rng n));
    candidate = any;
  }

let round_robin () =
  let last = ref (-1) in
  let pick m among =
    let next =
      match scan m among ~intr:false (!last + 1) 0 with
      | -1 -> scan m among ~intr:false 0 0
      | tid -> tid
    in
    if next >= 0 then last := next;
    next
  in
  { pick; candidate = any }

let first_interrupt m among =
  if Machine.runnable_interrupts m = 0 then -1 else scan m among ~intr:true 0 0

let prefer_interrupts inner =
  {
    pick =
      (fun m among ->
        match first_interrupt m among with
        | -1 -> inner.pick m among
        | tid -> tid);
    candidate =
      (fun m tid ->
        if Machine.runnable_interrupts m = 0 then inner.candidate m tid
        else Machine.is_interrupt m tid);
  }

let replay prefix fallback =
  let remaining = ref prefix in
  let pick m among =
    match !remaining with
    | [] -> fallback.pick m among
    | tid :: rest ->
      remaining := rest;
      if not (eligible m among tid) then
        failwith
          (Printf.sprintf "Sched.replay: t%d not runnable at replay point" tid);
      tid
  in
  { pick; candidate = any }

let choose ?(among = everyone) strategy m =
  assert (Machine.runnable_count m > 0);
  strategy.pick m among

let candidate strategy m tid =
  Machine.is_runnable m tid && strategy.candidate m tid
