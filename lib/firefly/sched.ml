module Tid = Threads_util.Tid

(* A strategy picks from the runnable threads that [among] accepts, by
   index in ascending tid order, through [Machine.nth_runnable]: the
   machine keeps the runnable counts and walks its own thread table, so
   nothing is built per pick. *)
type t = {
  pick : Machine.t -> (Tid.t -> bool) option -> Tid.t;
  prefers_interrupts : bool;
}

let random seed =
  let rng = Threads_util.Rng.create seed in
  let pick m among =
    let n =
      match among with
      | None -> Machine.runnable_count m
      | Some _ -> -1 - Machine.nth_runnable m ~from:0 ~intr:false among max_int
    in
    if n = 0 then -1
    else
      Machine.nth_runnable m ~from:0 ~intr:false among
        (Threads_util.Rng.int rng n)
  in
  { pick; prefers_interrupts = false }

let round_robin () =
  let last = ref (-1) in
  let pick m among =
    let next =
      match Machine.nth_runnable m ~from:(!last + 1) ~intr:false among 0 with
      | -1 -> Machine.nth_runnable m ~from:0 ~intr:false among 0
      | tid -> tid
    in
    if next >= 0 then last := next;
    next
  in
  { pick; prefers_interrupts = false }

let prefer_interrupts inner =
  let pick m among =
    match
      if Machine.runnable_interrupts m = 0 then -1
      else Machine.nth_runnable m ~from:0 ~intr:true among 0
    with
    | -1 -> inner.pick m among
    | tid -> tid
  in
  { pick; prefers_interrupts = true }

let choose ?among strategy m =
  assert (Machine.runnable_count m > 0);
  strategy.pick m among

let interrupts_only strategy m =
  strategy.prefers_interrupts && Machine.runnable_interrupts m > 0
