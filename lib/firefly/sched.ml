module Tid = Threads_util.Tid

type t = {
  pick : Machine.t -> Tid.t list -> Tid.t;
  candidates : Machine.t -> Tid.t list -> Tid.t list;
}

let any _m runnable = runnable

let random seed =
  let rng = Threads_util.Rng.create seed in
  {
    pick = (fun _m runnable -> Threads_util.Rng.pick_list rng runnable);
    candidates = any;
  }

let round_robin () =
  let last = ref (-1) in
  let pick _m runnable =
    let next =
      match List.find_opt (fun tid -> tid > !last) runnable with
      | Some tid -> tid
      | None -> List.hd runnable
    in
    last := next;
    next
  in
  { pick; candidates = any }

let prefer_interrupts inner =
  let interrupts m runnable = List.filter (Machine.is_interrupt m) runnable in
  {
    pick =
      (fun m runnable ->
        match interrupts m runnable with
        | tid :: _ -> tid
        | [] -> inner.pick m runnable);
    candidates =
      (fun m runnable ->
        match interrupts m runnable with
        | [] -> inner.candidates m runnable
        | tids -> tids);
  }

let replay prefix fallback =
  let remaining = ref prefix in
  let pick m runnable =
    match !remaining with
    | [] -> fallback.pick m runnable
    | tid :: rest ->
      remaining := rest;
      if not (List.mem tid runnable) then
        failwith
          (Printf.sprintf "Sched.replay: t%d not runnable at replay point" tid);
      tid
  in
  { pick; candidates = any }

let choose strategy m runnable =
  assert (runnable <> []);
  strategy.pick m runnable

let candidates strategy m runnable = strategy.candidates m runnable
