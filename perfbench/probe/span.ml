(* Spans kept in memory and written as Chrome trace-event JSON when the
   probe exits.  Each span records the span that was open when it
   started, so a layer's self time is its duration minus its children's.
   The clock is CLOCK_MONOTONIC, the same clock perfbench/run.py stamps
   its own spans with, so the two files merge onto one timeline. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = { name : string; parent : string; start_ns : int; end_ns : int }

let recorded = ref []
let open_spans = ref []

(* [timed name f] runs [f] inside a span and returns its result with the
   elapsed seconds. *)
let timed name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let t0 = now_ns () in
  let r =
    Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f
  in
  let t1 = now_ns () in
  recorded := { name; parent; start_ns = t0; end_ns = t1 } :: !recorded;
  (r, float_of_int (t1 - t0) *. 1e-9)

let write path =
  let open Obs.Json in
  let event s =
    Obj
      [
        ("name", String s.name);
        ("ph", String "X");
        ("pid", Int (Unix.getpid ()));
        ("tid", Int 0);
        ("ts", Float (float_of_int s.start_ns /. 1e3));
        ("dur", Float (float_of_int (s.end_ns - s.start_ns) /. 1e3));
        ("args", Obj [ ("parent", String s.parent) ]);
      ]
  in
  let oc = open_out path in
  output_string oc
    (to_string (Obj [ ("traceEvents", Arr (List.rev_map event !recorded)) ]));
  output_char oc '\n';
  close_out oc
