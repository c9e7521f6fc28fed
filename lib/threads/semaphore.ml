module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Probe = Firefly.Machine.Probe

(* The instrument names of one semaphore, built when it is created. *)
type keys = {
  acquires : string; fast_path_hits : string; nub_acquires : string;
  nub_releases : string; blocks : string; releases : string;
  timeouts : string; timed_ps : string; queue_hwm : string;
  p_block_cycles : string option; p_block_span : string;
  spin : Spinlock.obs option;
}

let keys n =
  let k suffix = n ^ suffix in
  { acquires = k ".acquires"; fast_path_hits = k ".fast_path_hits";
    nub_acquires = k ".nub_acquires"; nub_releases = k ".nub_releases";
    blocks = k ".blocks"; releases = k ".releases"; timeouts = k ".timeouts";
    timed_ps = k ".timed_ps"; queue_hwm = k ".queue_hwm";
    p_block_cycles = Some (k ".p_block_cycles");
    p_block_span = "P-block " ^ n; spin = Some (Spinlock.obs n) }

type t = {
  pkg : Pkg.t;
  bit : int;  (* 0 = available, 1 = unavailable *)
  waiters : int;
  q : Tqueue.t;
  k : keys;
}

let nub_acquire_count = M.counter_id "nub.acquire"
let nub_release_count = M.counter_id "nub.release"

let create pkg =
  let bit = Ops.alloc 1 in
  let waiters = Ops.alloc 1 in
  let n = Printf.sprintf "sem#%d" bit in
  Probe.register_word bit M.W_sem n;
  Probe.register_word waiters M.W_atomic (n ^ ".waiters");
  { pkg; bit; waiters; q = Tqueue.create (); k = keys n }

let id s = s.bit

(* Unlike a mutex there is no "held" span: V need not come from the thread
   that did the P, so a held region has no single track to live on.  The
   per-object signal is the P-block span/histogram instead. *)

let enter_nub s =
  Ops.incr_counter nub_acquire_count;
  Probe.counter s.k.nub_acquires 1

let enqueue s self =
  Tqueue.push s.q self;
  Ops.write s.waiters (Tqueue.length s.q);
  Probe.gauge_max s.k.queue_hwm (Tqueue.length s.q)

(* Deschedule, releasing the spin-lock atomically.  An alertable sleep
   can be cancelled by Alert; returns whether it was. *)
let block s self ~alertable =
  if alertable then
    Alerts.register s.pkg.alerts self (fun () ->
        ignore (Tqueue.remove s.q self);
        Probe.handoff ~obj:s.bit self;
        Ops.ready self);
  Probe.counter s.k.blocks 1;
  Probe.span_begin ~cat:"sem" s.k.p_block_span;
  Probe.will_block s.bit;
  Ops.deschedule_and_clear (Spinlock.addr s.pkg.lock);
  Probe.span_end ?sample:s.k.p_block_cycles s.k.p_block_span;
  alertable && Alerts.take_woken_by_alert s.pkg.alerts self

(* Under the spin-lock: ready the first queued thread, if any. *)
let ready_next s =
  match Tqueue.pop s.q with
  | Some t ->
    Ops.write s.waiters (Tqueue.length s.q);
    Alerts.unregister s.pkg.alerts t;
    Probe.handoff ~obj:s.bit t;
    Ops.ready t
  | None -> ()

(* Nub slow path shared by P and AlertP.  Returns [`Retry] after a wakeup
   by V or when the bit turned out to be free on re-test, [`Alerted] when
   the sleep was cancelled (or pre-empted) by an alert. *)
let nub_p s ~alertable =
  enter_nub s;
  let self = Ops.self () in
  Spinlock.acquire ?obs:s.k.spin s.pkg.lock;
  if alertable && Alerts.pending s.pkg.alerts self then begin
    Spinlock.release s.pkg.lock;
    `Alerted
  end
  else begin
    enqueue s self;
    if Ops.read s.bit <> 0 then
      if block s self ~alertable then `Alerted else `Retry
    else begin
      ignore (Tqueue.remove s.q self);
      Ops.write s.waiters (Tqueue.length s.q);
      Spinlock.release s.pkg.lock;
      `Retry
    end
  end

let try_tas s ~fast ~event =
  Ops.mem_emit (M.M_tas s.bit) (fun old ->
      if old = 0 then begin
        Probe.counter s.k.acquires 1;
        Probe.counter s.k.fast_path_hits (if fast then 1 else 0);
        event ()
      end)
  = 0

let rec p_loop s ~first ~alertable ~event =
  if s.pkg.fast_path then begin
    if not (try_tas s ~fast:first ~event) then
      match nub_p s ~alertable with
      | `Alerted -> `Alerted
      | `Retry -> p_loop s ~first:false ~alertable ~event
    else `Acquired
  end
  else begin
    (* Ablation: always through the Nub. *)
    enter_nub s;
    Spinlock.acquire ?obs:s.k.spin s.pkg.lock;
    if try_tas s ~fast:false ~event then begin
      Spinlock.release s.pkg.lock;
      `Acquired
    end
    else begin
      let self = Ops.self () in
      if alertable && Alerts.pending s.pkg.alerts self then begin
        Spinlock.release s.pkg.lock;
        `Alerted
      end
      else begin
        enqueue s self;
        if block s self ~alertable then `Alerted
        else p_loop s ~first:false ~alertable ~event
      end
    end
  end

let p s =
  let self = Ops.self () in
  match
    p_loop s ~first:true ~alertable:false ~event:(if not (Probe.tracing ()) then ignore
      else fun () -> Probe.emit { self; action = P { s = s.bit } })
  with
  | `Acquired -> ()
  | `Alerted -> assert false

let v s =
  let self = Ops.self () in
  ignore
    (Ops.mem_emit (M.M_clear s.bit) (fun _ ->
         Probe.counter s.k.releases 1;
         if Probe.tracing () then Probe.emit { self; action = V { s = s.bit } }));
  if (not s.pkg.fast_path) || Ops.read s.waiters <> 0 then begin
    Ops.incr_counter nub_release_count;
    Probe.counter s.k.nub_releases 1;
    Spinlock.acquire ?obs:s.k.spin s.pkg.lock;
    ready_next s;
    Spinlock.release s.pkg.lock
  end

(* TimedP: P that gives up after [timeout] simulated cycles.  One timer is
   armed for the whole operation; after every wakeup we test whether it
   was the timer (rather than a V) that woke us.  Expiry self-services
   under the spin-lock: dequeue ourselves — a stale queue entry would let
   a later V ready a finished thread — and, if the bit is free with
   sleepers still queued, donate the wakeup we may have absorbed to the
   next waiter, so a V that raced with our expiry is never lost. *)
let timed_p s ~timeout =
  let self = Ops.self () in
  let event = if not (Probe.tracing ()) then ignore else fun () ->
      Probe.emit { self; action = TimedP { s = s.bit; timed_out = false } } in
  Probe.set_timeout ~cycles:timeout;
  let expire () =
    Spinlock.acquire ?obs:s.k.spin s.pkg.lock;
    ignore (Tqueue.remove s.q self);
    Ops.write s.waiters (Tqueue.length s.q);
    if Ops.read s.bit = 0 then ready_next s;
    ignore
      (Ops.mem_emit M.M_none (fun _ ->
           if Probe.tracing () then
             Probe.emit { self; action = TimedP { s = s.bit; timed_out = true } }));
    Spinlock.release s.pkg.lock;
    Probe.cancel_timeout ();
    Probe.counter s.k.timeouts 1;
    raise Sync_intf.Timed_out
  in
  let rec loop ~first =
    if try_tas s ~fast:first ~event then Probe.cancel_timeout ()
    else if Probe.take_timeout_fired () then expire ()
    else begin
      (match nub_p s ~alertable:false with
      | `Alerted -> assert false (* non-alertable *)
      | `Retry -> ());
      if Probe.take_timeout_fired () then expire ();
      loop ~first:false
    end
  in
  Probe.counter s.k.timed_ps 1;
  loop ~first:true

let alert_p s =
  let self = Ops.self () in
  match
    p_loop s ~first:true ~alertable:true ~event:(if not (Probe.tracing ()) then ignore
      else fun () -> Probe.emit { self; action = AlertP { s = s.bit; alerted = false } })
  with
  | `Acquired -> ()
  | `Alerted ->
    (* Consume the pending alert atomically with the Raises event. *)
    ignore
      (Ops.mem_emit M.M_none (fun _ ->
           Alerts.consume_pending s.pkg.alerts self;
           if Probe.tracing () then
             Probe.emit { self; action = AlertP { s = s.bit; alerted = true } }));
    raise Sync_intf.Alerted
