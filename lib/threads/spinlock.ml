module Ops = Firefly.Machine.Ops
module Probe = Firefly.Machine.Probe

type t = { bit : int }

(* The names a contended acquisition is recorded under, built once per
   observed object. *)
type obs = { spin_iters : string; spin_cycles : string; spin_span : string }

let obs n =
  { spin_iters = n ^ ".spin_iters"; spin_cycles = n ^ ".spin_cycles";
    spin_span = "spin " ^ n }

let spin_iterations = Firefly.Machine.counter_id "spin.iterations"

(* Bounded exponential backoff between failed TASes, active only while a
   chaos run has injection enabled ([Probe.chaos_active] is a host-side
   test, so disabled runs execute the bare loop instruction-for-
   instruction and stay schedule-identical to pre-backoff behavior).
   Under an injected contention burst this keeps the bus from being
   saturated by retry TASes. *)
let backoff_start = 2
let backoff_cap = 64

(* [?obs] attributes contended spinning to the synchronization object
   whose Nub subroutine took the spin-lock: per-object spin-iteration and
   spin-cycle counters, plus a "spin <obj>" span when at least one TAS
   failed.  The probe calls are not machine effects, so the instruction
   sequence (and hence the schedule) is exactly that of the bare loop.

   The spin contract: after a failed TAS the bare loop declares
   [Probe.spin_on l.bit] — from here on it only retries the TAS, with its
   local state unchanged — and a successful TAS clears the declaration.
   That is what lets [Interleave.certificate] prove a livelock instead of
   running it out.  The backoff loop declares once [backoff] has reached
   [backoff_cap]: from then on each retry is the same. *)
let rec spin l obs ~t0 ~spun ~backoff =
  if Ops.tas l.bit then begin
    Ops.incr_counter spin_iterations;
    (match obs with Some o -> Probe.counter o.spin_iters 1 | None -> ());
    if Probe.chaos_active () then begin
      if backoff = backoff_cap then Probe.spin_on l.bit;
      Ops.tick backoff;
      spin l obs ~t0 ~spun:true ~backoff:(min (backoff * 2) backoff_cap)
    end
    else begin
      Probe.spin_on l.bit;
      spin l obs ~t0 ~spun:true ~backoff
    end
  end
  else begin
    Probe.lock_acquired l.bit;
    if spun then begin
      Probe.spin_end ();
      match obs with
      | Some o ->
        let t1 = Probe.now () in
        Probe.counter o.spin_cycles (t1 - t0);
        Probe.span_add ~cat:"spin" o.spin_span ~t0 ~t1
      | None -> ()
    end
  end

let acquire ?obs l =
  spin l obs ~t0:(Probe.now ()) ~spun:false ~backoff:backoff_start

let release l =
  Probe.lock_released l.bit;
  Ops.clear l.bit

let addr l = l.bit

let create ?(name = "spin-lock") () =
  let bit = Ops.alloc 1 in
  Probe.register_word bit Firefly.Machine.W_lock name;
  let l = { bit } in
  (* Chaos hook: a TAS contention burst is [n] acquire/release pairs from
     an injector thread — real contention through the real instructions,
     so lockset/happens-before analyses still see a well-formed history. *)
  Probe.register_chaos (name ^ ".contend") (fun n ->
      for _ = 1 to max 1 n do
        acquire l;
        release l
      done);
  l
