module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Probe = Firefly.Machine.Probe
module Tid = Threads_util.Tid

(* The instrument names of one lock bit, built when it is created.  The
   histograms that sample a span's duration are options, passed straight
   to [Probe.span_end ?sample].  The "held" span and its histogram belong
   to a mutex; the timeout counters to a semaphore. *)
type keys = {
  acquires : string; fast_path_hits : string; nub_acquires : string;
  nub_releases : string; blocks : string; releases : string;
  queue_hwm : string; wait_cat : string; wait_span : string;
  wait_cycles : string option; held_span : string;
  hold_cycles : string option; timeouts : string; timed_ps : string;
  spin : Spinlock.obs option;
}

let keys ~holder n =
  let k suffix = n ^ suffix in
  { acquires = k ".acquires"; fast_path_hits = k ".fast_path_hits";
    nub_acquires = k ".nub_acquires"; nub_releases = k ".nub_releases";
    blocks = k ".blocks"; releases = k ".releases"; queue_hwm = k ".queue_hwm";
    wait_cat = (if holder then "mutex" else "sem");
    wait_span = (if holder then "wait " else "P-block ") ^ n;
    wait_cycles = Some (k (if holder then ".wait_cycles" else ".p_block_cycles"));
    held_span = (if holder then "held " ^ n else "");
    hold_cycles = (if holder then Some (k ".hold_cycles") else None);
    timeouts = (if holder then "" else k ".timeouts");
    timed_ps = (if holder then "" else k ".timed_ps");
    spin = Some (Spinlock.obs n) }

type t = {
  pkg : Pkg.t;
  bit : int;  (* the Lock-bit; for a semaphore, 0 = available *)
  waiters : int;  (* |queue|, maintained under the spin-lock *)
  q : Tid.t Tqueue.t;
  holder : bool;
      (* a mutex: the thread that wins the bit holds it until its Release.
         A semaphore's V need not come from the thread that did the P, so
         it has no holder and no "held" span. *)
  k : keys;
}

let nub_acquire_count = M.counter_id "nub.acquire"
let nub_release_count = M.counter_id "nub.release"

let make pkg ~holder =
  let bit = Ops.alloc 1 in
  let waiters = Ops.alloc 1 in
  let n =
    if holder then Printf.sprintf "mutex#%d" bit else Printf.sprintf "sem#%d" bit
  in
  Probe.register_word bit (if holder then M.W_lock else M.W_sem) n;
  (* Read racily by the release fast path; the paper sanctions this. *)
  Probe.register_word waiters M.W_atomic (n ^ ".waiters");
  { pkg; bit; waiters; q = Tqueue.create (); holder; k = keys ~holder n }

let create pkg = make pkg ~holder:true
let semaphore pkg = make pkg ~holder:false
let id m = m.bit

(* The test-and-set.  A win records the acquisition — per-object counters
   and, for a mutex, the start of the "held" span whose duration feeds the
   hold-time histogram — and runs [event], atomically with the
   instruction.  Returns the old bit. *)
let tas m ~fast ~event =
  Ops.mem_emit (M.M_tas m.bit) (fun old ->
      if old = 0 then begin
        if m.holder then Probe.lock_acquired m.bit;
        Probe.counter m.k.acquires 1;
        Probe.counter m.k.fast_path_hits (if fast then 1 else 0);
        if m.holder then Probe.span_begin ~cat:"mutex" m.k.held_span;
        event ()
      end)

let enter_nub m =
  Ops.incr_counter nub_acquire_count;
  Probe.counter m.k.nub_acquires 1

let enqueue m self =
  Tqueue.push m.q self;
  Ops.write m.waiters (Tqueue.length m.q);
  Probe.gauge_max m.k.queue_hwm (Tqueue.length m.q)

(* Deschedule, releasing the spin-lock atomically; the waker leaves us
   dequeued.  An alertable sleep can be cancelled by Alert; returns
   whether it was. *)
let block m self ~alertable =
  if alertable then
    Alerts.register m.pkg.alerts self (fun () ->
        ignore (Tqueue.remove m.q self);
        Probe.handoff ~obj:m.bit self;
        Ops.ready self);
  Probe.counter m.k.blocks 1;
  Probe.span_begin ~cat:m.k.wait_cat m.k.wait_span;
  Probe.will_block m.bit;
  Ops.deschedule_and_clear (Spinlock.addr m.pkg.lock);
  Probe.span_end ?sample:m.k.wait_cycles m.k.wait_span;
  alertable && Alerts.take_woken_by_alert m.pkg.alerts self

(* Under the spin-lock: ready the first queued thread, if any. *)
let ready_next m =
  match Tqueue.pop m.q with
  | Some t ->
    Ops.write m.waiters (Tqueue.length m.q);
    Alerts.unregister m.pkg.alerts t;
    Probe.handoff ~obj:m.bit t;
    Ops.ready t
  | None -> ()

(* Nub subroutine for Acquire and P: under the spin-lock, enqueue the
   caller and re-test the Lock-bit.  Still set: block.  Clear: dequeue
   ourselves, release the spin-lock.  Returns [`Retry] — the caller
   retries from the test-and-set — or [`Alerted] when an alertable sleep
   was cancelled (or pre-empted) by an alert. *)
let nub_lock m ~alertable =
  enter_nub m;
  let self = Ops.self () in
  Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
  if alertable && Alerts.pending m.pkg.alerts self then begin
    Spinlock.release m.pkg.lock;
    `Alerted
  end
  else begin
    enqueue m self;
    if Ops.read m.bit <> 0 then
      if block m self ~alertable then `Alerted else `Retry
    else begin
      ignore (Tqueue.remove m.q self);
      Ops.write m.waiters (Tqueue.length m.q);
      Spinlock.release m.pkg.lock;
      `Retry
    end
  end

let rec lock_loop m ~first ~alertable ~event =
  if m.pkg.fast_path then begin
    if tas m ~fast:first ~event = 0 then `Acquired
    else
      match nub_lock m ~alertable with
      | `Alerted -> `Alerted
      | `Retry -> lock_loop m ~first:false ~alertable ~event
  end
  else begin
    (* Ablation: every Acquire and P goes through the Nub. *)
    enter_nub m;
    Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
    if tas m ~fast:false ~event = 0 then begin
      Spinlock.release m.pkg.lock;
      `Acquired
    end
    else begin
      let self = Ops.self () in
      if alertable && Alerts.pending m.pkg.alerts self then begin
        Spinlock.release m.pkg.lock;
        `Alerted
      end
      else begin
        enqueue m self;
        if block m self ~alertable then `Alerted
        else lock_loop m ~first:false ~alertable ~event
      end
    end
  end

let lock_internal m ~event =
  match lock_loop m ~first:true ~alertable:false ~event with
  | `Acquired -> ()
  | `Alerted -> assert false (* non-alertable *)

(* Clear the bit, running [on_clear] atomically with the instruction, then
   let the Nub ready one queued thread — if the racily read waiter count
   says there is one, or always in the ablation.  [on_clear] starts with
   [released]; V passes its own, so a traced V builds one closure, not
   two. *)
let clear m on_clear =
  ignore (Ops.mem_emit (M.M_clear m.bit) on_clear);
  if (not m.pkg.fast_path) || Ops.read m.waiters <> 0 then begin
    Ops.incr_counter nub_release_count;
    Probe.counter m.k.nub_releases 1;
    Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
    ready_next m;
    Spinlock.release m.pkg.lock
  end

let released m =
  if m.holder then Probe.lock_released m.bit;
  Probe.counter m.k.releases 1;
  if m.holder then Probe.span_end ?sample:m.k.hold_cycles m.k.held_span

let unlock_internal m ~event =
  clear m (fun _ ->
      released m;
      event ())

let acquire m =
  let self = Ops.self () in
  lock_internal m ~event:(if not (Probe.tracing ()) then ignore else fun () ->
      Probe.emit { self; action = Acquire { m = m.bit } })

let release m =
  let self = Ops.self () in
  unlock_internal m ~event:(if not (Probe.tracing ()) then ignore else fun () ->
      Probe.emit { self; action = Release { m = m.bit } })

let with_lock m f =
  acquire m;
  Fun.protect ~finally:(fun () -> release m) f

let p s =
  let self = Ops.self () in
  lock_internal s ~event:(if not (Probe.tracing ()) then ignore else fun () ->
      Probe.emit { self; action = P { s = s.bit } })

let v s =
  let self = Ops.self () in
  clear s (fun _ ->
      released s;
      if Probe.tracing () then Probe.emit { self; action = V { s = s.bit } })

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
    if tas s ~fast:first ~event = 0 then Probe.cancel_timeout ()
    else if Probe.take_timeout_fired () then expire ()
    else begin
      (match nub_lock s ~alertable:false with
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
    lock_loop s ~first:true ~alertable:true ~event:(if not (Probe.tracing ()) then ignore
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
