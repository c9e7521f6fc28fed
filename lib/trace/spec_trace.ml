module Tid = Threads_util.Tid

type wait = Wait | AlertWait | TimedWait

type action =
  | Acquire of { m : int }
  | Release of { m : int }
  | Enqueue of { proc : wait; m : int; c : int }
  | Resume of { m : int; c : int }
  | AlertResume of { m : int; c : int; alerted : bool }
  | TimedResume of { m : int; c : int; timed_out : bool }
  | Signal of { c : int; removed : Tid.t list }
  | Broadcast of { c : int; removed : Tid.t list }
  | P of { s : int }
  | V of { s : int }
  | Alert of { t : Tid.t }
  | TestAlert of { result : bool }
  | AlertP of { s : int; alerted : bool }
  | TimedP of { s : int; timed_out : bool }

type event = { self : Tid.t; action : action }

let kind = function
  | Acquire _ -> 0 | Release _ -> 1 | Enqueue { proc = Wait; _ } -> 2
  | Enqueue { proc = AlertWait; _ } -> 3 | Enqueue { proc = TimedWait; _ } -> 4
  | Resume _ -> 5 | AlertResume _ -> 6 | TimedResume _ -> 7 | Signal _ -> 8
  | Broadcast _ -> 9 | P _ -> 10 | V _ -> 11 | Alert _ -> 12 | TestAlert _ -> 13
  | AlertP _ -> 14 | TimedP _ -> 15

let names =
  [| ("Acquire", "Acquire"); ("Release", "Release"); ("Wait", "Enqueue");
     ("AlertWait", "Enqueue"); ("TimedWait", "Enqueue"); ("Wait", "Resume");
     ("AlertWait", "AlertResume"); ("TimedWait", "TimedResume");
     ("Signal", "Signal"); ("Broadcast", "Broadcast"); ("P", "P"); ("V", "V");
     ("Alert", "Alert"); ("TestAlert", "TestAlert"); ("AlertP", "AlertP");
     ("TimedP", "TimedP") |]

let kinds = Array.length names
let kind_names k = names.(k)
let proc_name a = fst names.(kind a)
let action_name a = snd names.(kind a)

let args = function
  | Acquire { m } | Release { m } -> [ ("m", m) ]
  | Enqueue { m; c; _ } | Resume { m; c } | AlertResume { m; c; _ }
  | TimedResume { m; c; _ } ->
    [ ("m", m); ("c", c) ]
  | Signal { c; _ } | Broadcast { c; _ } -> [ ("c", c) ]
  | P { s } | V { s } | AlertP { s; _ } | TimedP { s; _ } -> [ ("s", s) ]
  | Alert { t } -> [ ("t", t) ]
  | TestAlert _ -> []

let raises = function
  | AlertResume { alerted = true; _ } | AlertP { alerted = true; _ } ->
    Some "Alerted"
  | TimedResume { timed_out = true; _ } | TimedP { timed_out = true; _ } ->
    Some "TimedOut"
  | _ -> None

let result = function TestAlert { result } -> Some result | _ -> None

let removed = function
  | Signal { removed; _ } | Broadcast { removed; _ } -> removed
  | _ -> []

let pp_event ppf { self; action } =
  let pp_arg ppf (name, id) =
    match action with
    | Alert _ -> Format.fprintf ppf "%s=%a" name Tid.pp id
    | _ -> Format.fprintf ppf "%s=#%d" name id
  in
  Format.fprintf ppf "%a: %s.%s(%a)" Tid.pp self (proc_name action)
    (action_name action)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_arg)
    (args action);
  Option.iter (Format.fprintf ppf " raises %s") (raises action);
  Option.iter (Format.fprintf ppf " -> %b") (result action);
  match removed action with
  | [] -> ()
  | r -> Format.fprintf ppf " removed=%a" Tid.Set.pp (Tid.Set.of_list r)

let event_to_string e = Format.asprintf "%a" pp_event e

module Sink = struct
  (* A lock-free cons onto an atomic list: emitters on real parallel
     backends append while holding their own linearizing lock, so the CAS
     loop here only ever retries under cross-object contention. *)
  type t = event list Atomic.t

  let create () = Atomic.make []

  let rec emit t ev =
    let old = Atomic.get t in
    if not (Atomic.compare_and_set t old (ev :: old)) then emit t ev

  let events t = List.rev (Atomic.get t)
end
