module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Tid = Threads_util.Tid

type monitor = {
  mutable holder : Tid.t option;
  entry : Tid.t Tqueue.t;
  urgent : Tid.t Tqueue.t;  (* suspended signallers; priority over entry *)
  mutable switch_count : int;
  scratch : int;  (* deschedule word; doubles as the monitor's trace id *)
}

type cond = { mon : monitor; hq : Tid.t Tqueue.t; cid : int }

(* Condition trace ids are negative so they can never collide with the
   memory addresses that identify monitors (and any other traced object)
   without spending a machine effect on allocation.  They come from the
   machine ([Probe.fresh_trace_id]) rather than a process-global counter,
   so the ids appearing in traces — and in conformance reports — depend
   only on the run, not on how many runs this process (or a sibling
   domain) executed before it. *)

let atomically f = ignore (Ops.mem_emit M.M_none (fun _ -> f ()))

(* All events below are emitted with {!M.Probe.emit} from inside the
   atomic thunks: they cost no cycles and add no scheduling points, so
   step counts are identical to the un-instrumented version.  Each is
   built only when the run is traced. *)
let emit = M.Probe.emit
let tracing = M.Probe.tracing

let monitor () =
  let scratch = Ops.alloc 1 in
  (* The scratch word is only a deschedule target; the monitor itself is
     the lock, identified by the scratch address. *)
  M.Probe.register_word scratch M.W_atomic
    (Printf.sprintf "monitor#%d.scratch" scratch);
  M.Probe.register_lock scratch (Printf.sprintf "monitor#%d" scratch);
  {
    holder = None;
    entry = Tqueue.create ();
    urgent = Tqueue.create ();
    switch_count = 0;
    scratch;
  }

let condition mon =
  let cid = M.Probe.fresh_trace_id () in
  M.Probe.register_lock cid (Printf.sprintf "hcond#%d" (-cid));
  { mon; hq = Tqueue.create (); cid }

(* Ownership is transferred, never contended: a thread woken from the
   entry, urgent or condition queue already holds the monitor. *)
let enter mon =
  let self = Ops.self () in
  let got = ref false in
  atomically (fun () ->
      M.Probe.touch mon.scratch;
      match mon.holder with
      | None ->
        mon.holder <- Some self;
        M.Probe.lock_acquired mon.scratch;
        if tracing () then emit { self; action = Acquire { m = mon.scratch } };
        got := true
      | Some _ ->
        M.Probe.lock_attempted mon.scratch;
        Tqueue.push mon.entry self);
  if not !got then begin
    M.Probe.will_block mon.scratch;
    Ops.deschedule_and_clear mon.scratch
  end

(* Pass the monitor to a suspended signaller first, then to an entering
   thread, else free it.  Returns the thread to ready, if any.  The
   recipient's Acquire commits in the same instruction as the donor's
   Release/Enqueue — the donor's event has already set the abstract mutex
   to NIL, so the handoff itself conforms. *)
let pass_on mon =
  let grant t =
    mon.holder <- Some t;
    M.Probe.lock_acquired ~tid:t mon.scratch;
    if tracing () then emit { self = t; action = Acquire { m = mon.scratch } };
    Some t
  in
  match Tqueue.pop mon.urgent with
  | Some u -> grant u
  | None -> (
    match Tqueue.pop mon.entry with
    | Some e -> grant e
    | None ->
      mon.holder <- None;
      None)

let exit mon =
  let next = ref None in
  atomically (fun () ->
      M.Probe.touch mon.scratch;
      (match M.Probe.self () with
      | Some self when tracing () ->
        emit { self; action = Release { m = mon.scratch } }
      | _ -> ());
      M.Probe.lock_released mon.scratch;
      next := pass_on mon);
  match !next with
  | Some t ->
    M.Probe.handoff ~obj:mon.scratch t;
    Ops.ready t
  | None -> ()

let with_monitor mon f =
  enter mon;
  Fun.protect ~finally:(fun () -> exit mon) f

let wait c =
  let self = Ops.self () in
  let next = ref None in
  atomically (fun () ->
      M.Probe.touch c.mon.scratch;
      M.Probe.touch c.cid;
      Tqueue.push c.hq self;
      if tracing () then
        emit { self; action = Enqueue { proc = Wait; m = c.mon.scratch; c = c.cid } };
      M.Probe.lock_released c.mon.scratch;
      next := pass_on c.mon);
  (match !next with
  | Some t ->
    M.Probe.handoff ~obj:c.mon.scratch t;
    Ops.ready t
  | None -> ());
  M.Probe.will_block c.cid;
  Ops.deschedule_and_clear c.mon.scratch
(* On return the signaller has handed us the monitor: predicate intact. *)

let hoare_switches = M.counter_id "hoare.switches"

(* The deliberate non-conformance lives here.  Hoare signal hands the
   monitor straight to the waiter: the waiter's Resume commits while the
   abstract mutex still belongs to the signaller, so its [WHEN (m = NIL)]
   fails — the checker reports exactly one violation per effective
   signal.  (The Signal event itself conforms: it removes one waiter.) *)
let do_signal c =
  let self = Ops.self () in
  let woke = ref None in
  atomically (fun () ->
      M.Probe.touch c.mon.scratch;
      M.Probe.touch c.cid;
      match Tqueue.pop c.hq with
      | Some w ->
        (* Hand over the monitor and step aside onto the urgent queue. *)
        c.mon.holder <- Some w;
        M.Probe.lock_released c.mon.scratch;
        M.Probe.lock_acquired ~tid:w c.mon.scratch;
        Tqueue.push c.mon.urgent self;
        c.mon.switch_count <- c.mon.switch_count + 2;
        if tracing () then begin
          emit { self; action = Signal { c = c.cid; removed = [ w ] } };
          emit { self = w; action = Resume { m = c.mon.scratch; c = c.cid } }
        end;
        woke := Some w
      | None ->
        if tracing () then emit { self; action = Signal { c = c.cid; removed = [] } });
  match !woke with
  | Some w ->
    Ops.incr_counter hoare_switches;
    M.Probe.handoff ~obj:c.cid w;
    Ops.ready w;
    (* The signaller parks on the urgent queue waiting for the monitor,
       whose owner is now [w] — exactly the hand-off edge E8 charges. *)
    M.Probe.will_block c.mon.scratch;
    Ops.deschedule_and_clear c.mon.scratch;
    true
  | None -> false

let signal c = ignore (do_signal c)

(* Hoare (1974) has no broadcast; the classical encoding is to signal
   until the queue drains.  Each round forces the usual pair of context
   switches, which is precisely the cost E8 charges this semantics. *)
let broadcast c =
  while do_signal c do
    ()
  done

let switches mon = mon.switch_count
