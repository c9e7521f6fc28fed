module Stats = Threads_util.Stats

type span = {
  track : int;  (* simulated thread id *)
  name : string;  (* e.g. "held mutex#2" *)
  cat : string;  (* "mutex" | "cond" | "sem" | "spin" | "sched" | ... *)
  t0 : int;  (* begin, in simulated cycles *)
  t1 : int;  (* end, in simulated cycles *)
}

type t = {
  counters : (string, int) Hashtbl.t;
  hists : (string, int list ref) Hashtbl.t;  (* samples, reversed *)
  gauges : (string, int) Hashtbl.t;  (* high-water marks *)
  open_spans : (int * string, int * string) Hashtbl.t;
      (* (track, name) -> (t0, cat) *)
  mutable spans_rev : span list;
  mutable nspans : int;
}

let create () =
  {
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    open_spans = Hashtbl.create 16;
    spans_rev = [];
    nspans = 0;
  }

(* [Hashtbl.find], not [find_opt]: a hit on this hot path allocates nothing. *)
let incr t name n =
  match Hashtbl.find t.counters name with
  | cur -> Hashtbl.replace t.counters name (cur + n)
  | exception Not_found -> Hashtbl.add t.counters name n

let sample t name v =
  match Hashtbl.find t.hists name with
  | r -> r := v :: !r
  | exception Not_found -> Hashtbl.add t.hists name (ref [ v ])

let gauge_max t name v =
  match Hashtbl.find t.gauges name with
  | cur -> if v > cur then Hashtbl.replace t.gauges name v
  | exception Not_found -> Hashtbl.add t.gauges name v

let add_span t span =
  t.spans_rev <- span :: t.spans_rev;
  t.nspans <- t.nspans + 1

let span_begin t ~track ?(cat = "span") name ~now =
  Hashtbl.replace t.open_spans (track, name) (now, cat)

let span_end t ~track name ~now =
  match Hashtbl.find_opt t.open_spans (track, name) with
  | None -> None
  | Some (t0, cat) ->
    Hashtbl.remove t.open_spans (track, name);
    add_span t { track; name; cat; t0; t1 = now };
    Some (now - t0)

let span_add t ~track ?(cat = "span") name ~t0 ~t1 =
  add_span t { track; name; cat; t0; t1 }

let open_span_count t = Hashtbl.length t.open_spans

(* The fold of a machine's statistics stream into [reg]. *)
let record reg m =
  let module M = Firefly.Machine in
  M.subscribe m M.K_stat (function
    | M.Ev_stat { tid = track; t = now; stat } -> (
      match stat with
      | M.St_count (name, n) -> incr reg name n
      | M.St_sample (name, v) -> sample reg name v
      | M.St_gauge (name, v) -> gauge_max reg name v
      | M.St_begin (cat, name) -> span_begin reg ~track ~cat name ~now
      | M.St_end (name, hist) -> (
        match (span_end reg ~track name ~now, hist) with
        | Some d, Some hist -> sample reg hist d
        | _ -> ())
      | M.St_span (cat, name, t0, t1) -> span_add reg ~track ~cat name ~t0 ~t1)
    | _ -> ())

type snapshot = {
  counters : (string * int) list;  (* sorted by name *)
  gauges : (string * int) list;  (* sorted by name *)
  histograms : (string * Stats.summary) list;  (* sorted by name *)
  spans : span list;  (* sorted by (t0, track), completion order on ties *)
}

let sorted_assoc fold tbl =
  fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let snapshot (t : t) =
  {
    counters = sorted_assoc Hashtbl.fold t.counters;
    gauges = sorted_assoc Hashtbl.fold t.gauges;
    histograms =
      Hashtbl.fold
        (fun k r acc -> (k, Stats.summarize_ints (List.rev !r)) :: acc)
        t.hists []
      |> List.sort (fun (a, _) (b, _) -> compare (a : string) b);
    spans =
      List.stable_sort
        (fun a b -> compare (a.t0, a.track) (b.t0, b.track))
        (List.rev t.spans_rev);
  }
