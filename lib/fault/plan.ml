module Rng = Threads_util.Rng

type action =
  | Delay_wakeups of { after : int; width : int; delay : int }
  | Drop_wakeup of { after : int }
  | Spurious_wakeup of { after : int }
  | Alert_storm of { after : int; count : int }
  | Stall of { after : int; tid : int; duration : int }
  | Crash_stop of { after : int; tid : int }
  | Contention_burst of { after : int; count : int }

type t = { id : int; actions : action list }

let trigger = function
  | Delay_wakeups { after; _ }
  | Drop_wakeup { after }
  | Spurious_wakeup { after }
  | Alert_storm { after; _ }
  | Stall { after; _ }
  | Crash_stop { after; _ }
  | Contention_burst { after; _ } -> after

let describe_action = function
  | Delay_wakeups { after; width; delay } ->
    Printf.sprintf "delay-wakeups@%d width=%d delay=%d" after width delay
  | Drop_wakeup { after } -> Printf.sprintf "drop-wakeup@%d" after
  | Spurious_wakeup { after } -> Printf.sprintf "spurious-wakeup@%d" after
  | Alert_storm { after; count } ->
    Printf.sprintf "alert-storm@%d count=%d" after count
  | Stall { after; tid; duration } ->
    Printf.sprintf "stall@%d t%d for=%d" after tid duration
  | Crash_stop { after; tid } -> Printf.sprintf "crash-stop@%d t%d" after tid
  | Contention_burst { after; count } ->
    Printf.sprintf "contention-burst@%d count=%d" after count

let describe p =
  Printf.sprintf "plan#%d: %s" p.id
    (String.concat "; " (List.map describe_action p.actions))

let by_trigger actions =
  List.stable_sort (fun a b -> compare (trigger a) (trigger b)) actions

(* Seven plan families, cycled by id; the id also seeds the jitter, so
   plan N is one fixed, reproducible fault sequence everywhere. *)
let families = 7

let generate ~plan_id () =
  let rng = Rng.create (0x0fa517 + (plan_id * 0x9e3779)) in
  let between lo hi = lo + Rng.int rng (hi - lo) in
  let actions =
    match plan_id mod families with
    | 0 ->
      [
        Delay_wakeups
          {
            after = between 100 400;
            width = between 200 600;
            delay = between 50 400;
          };
      ]
    | 1 ->
      [
        Drop_wakeup { after = between 100 500 };
        Drop_wakeup { after = between 600 1200 };
      ]
    | 2 ->
      [
        Spurious_wakeup { after = between 50 300 };
        Spurious_wakeup { after = between 300 900 };
      ]
    | 3 -> [ Alert_storm { after = between 100 500; count = between 2 5 } ]
    | 4 ->
      [
        Stall
          {
            after = between 100 400;
            tid = Rng.int rng 4;
            duration = between 200 800;
          };
      ]
    | 5 -> [ Crash_stop { after = between 200 900; tid = between 1 4 } ]
    | _ ->
      [
        Contention_burst { after = between 50 300; count = between 2 8 };
        Delay_wakeups
          {
            after = between 300 800;
            width = between 100 400;
            delay = between 20 200;
          };
      ]
  in
  { id = plan_id; actions = by_trigger actions }

(* ---- free-form generation (generative campaigns) ---- *)

(* Unlike [generate], which cycles seven curated single-family plans,
   [random] draws an arbitrary-length mix of families from one
   [Rng.cell] stream — the raw material the generative engine composes
   with random programs and then shrinks. *)
let random_action rng =
  let between lo hi = lo + Rng.int rng (hi - lo) in
  match Rng.int rng 7 with
  | 0 ->
    Delay_wakeups
      {
        after = between 50 600;
        width = between 100 600;
        delay = between 20 400;
      }
  | 1 -> Drop_wakeup { after = between 50 1200 }
  | 2 -> Spurious_wakeup { after = between 50 900 }
  | 3 -> Alert_storm { after = between 50 600; count = between 1 5 }
  | 4 ->
    Stall { after = between 50 600; tid = Rng.int rng 5; duration = between 100 800 }
  | 5 -> Crash_stop { after = between 100 900; tid = between 1 5 }
  | _ -> Contention_burst { after = between 50 400; count = between 1 8 }

let random ~seed ~id =
  let rng = Rng.cell ~base:seed ~index:id in
  let n = 1 + Rng.int rng 3 in
  { id; actions = by_trigger (List.init n (fun _ -> random_action rng)) }

(* ---- shrinking ---- *)

(* Candidates that are strictly simpler than [p]: first each action
   dropped (size shrinks), then each action's magnitude parameters
   halved (size equal, weight shrinks).  Deterministic order; a greedy
   minimizer that only accepts still-failing candidates terminates
   because (length, weight) decreases lexicographically. *)

let weight_action = function
  | Delay_wakeups { width; delay; _ } -> width + delay
  | Drop_wakeup _ -> 1
  | Spurious_wakeup _ -> 1
  | Alert_storm { count; _ } -> count
  | Stall { duration; _ } -> duration
  | Crash_stop _ -> 1
  | Contention_burst { count; _ } -> count

let weight p = List.fold_left (fun acc a -> acc + weight_action a) 0 p.actions

let shrink_action a =
  let halve n = if n > 1 then Some (n / 2) else None in
  match a with
  | Delay_wakeups { after; width; delay } ->
    (match halve width with
    | Some w -> [ Delay_wakeups { after; width = w; delay } ]
    | None -> [])
    @ (match halve delay with
      | Some d -> [ Delay_wakeups { after; width; delay = d } ]
      | None -> [])
  | Drop_wakeup _ | Spurious_wakeup _ | Crash_stop _ -> []
  | Alert_storm { after; count } -> (
    match halve count with
    | Some c -> [ Alert_storm { after; count = c } ]
    | None -> [])
  | Stall { after; tid; duration } -> (
    match halve duration with
    | Some d -> [ Stall { after; tid; duration = d } ]
    | None -> [])
  | Contention_burst { after; count } -> (
    match halve count with
    | Some c -> [ Contention_burst { after; count = c } ]
    | None -> [])

let shrink p =
  let n = List.length p.actions in
  let drop i = List.filteri (fun j _ -> j <> i) p.actions in
  let dropped = List.init n (fun i -> { p with actions = drop i }) in
  let softened =
    List.concat
      (List.mapi
         (fun i a ->
           List.map
             (fun a' ->
               { p with actions = List.mapi (fun j b -> if j = i then a' else b) p.actions })
             (shrink_action a))
         p.actions)
  in
  dropped @ softened

(* ---- serialization (replay files) ---- *)

let encode_action = function
  | Delay_wakeups { after; width; delay } ->
    Printf.sprintf "delay-wakeups %d %d %d" after width delay
  | Drop_wakeup { after } -> Printf.sprintf "drop-wakeup %d" after
  | Spurious_wakeup { after } -> Printf.sprintf "spurious-wakeup %d" after
  | Alert_storm { after; count } -> Printf.sprintf "alert-storm %d %d" after count
  | Stall { after; tid; duration } ->
    Printf.sprintf "stall %d %d %d" after tid duration
  | Crash_stop { after; tid } -> Printf.sprintf "crash-stop %d %d" after tid
  | Contention_burst { after; count } ->
    Printf.sprintf "contention-burst %d %d" after count

let decode_action s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "delay-wakeups"; a; w; d ] -> (
    match (int_of_string_opt a, int_of_string_opt w, int_of_string_opt d) with
    | Some after, Some width, Some delay ->
      Some (Delay_wakeups { after; width; delay })
    | _ -> None)
  | [ "drop-wakeup"; a ] ->
    Option.map (fun after -> Drop_wakeup { after }) (int_of_string_opt a)
  | [ "spurious-wakeup"; a ] ->
    Option.map (fun after -> Spurious_wakeup { after }) (int_of_string_opt a)
  | [ "alert-storm"; a; c ] -> (
    match (int_of_string_opt a, int_of_string_opt c) with
    | Some after, Some count -> Some (Alert_storm { after; count })
    | _ -> None)
  | [ "stall"; a; t; d ] -> (
    match (int_of_string_opt a, int_of_string_opt t, int_of_string_opt d) with
    | Some after, Some tid, Some duration -> Some (Stall { after; tid; duration })
    | _ -> None)
  | [ "crash-stop"; a; t ] -> (
    match (int_of_string_opt a, int_of_string_opt t) with
    | Some after, Some tid -> Some (Crash_stop { after; tid })
    | _ -> None)
  | [ "contention-burst"; a; c ] -> (
    match (int_of_string_opt a, int_of_string_opt c) with
    | Some after, Some count -> Some (Contention_burst { after; count })
    | _ -> None)
  | _ -> None
