module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Probe = Firefly.Machine.Probe
module Tid = Threads_util.Tid

(* The instrument names of one condition, built when it is created. *)
type keys = {
  waits : string; timed_waits : string; blocks : string;
  stale_blocks : string; timeouts : string; signals : string;
  broadcasts : string; wakeup_waiting_hits : string; nub_skips : string;
  queue_hwm : string; wakeup_cycles : string option; wait_cycles : string;
  wait_span : string; spin : Spinlock.obs option;
}

let keys n =
  let k suffix = n ^ suffix in
  { waits = k ".waits"; timed_waits = k ".timed_waits"; blocks = k ".blocks";
    stale_blocks = k ".stale_blocks"; timeouts = k ".timeouts";
    signals = k ".signals"; broadcasts = k ".broadcasts";
    wakeup_waiting_hits = k ".wakeup_waiting_hits"; nub_skips = k ".nub_skips";
    queue_hwm = k ".queue_hwm"; wakeup_cycles = Some (k ".wakeup_cycles");
    wait_cycles = k ".wait_cycles"; wait_span = "wait " ^ n;
    spin = Some (Spinlock.obs n) }

let nub_signal_count = M.counter_id "nub.signal"

type t = {
  pkg : Pkg.t;
  evc : Firefly.Eventcount.t;
  interest : int;
      (* addr; waiters faa it up before Enqueue and down after leaving, so
         the user-space Signal/Broadcast skip (read = 0) is conservative *)
  q : Tid.t Tqueue.t;
  window : (Tid.t, unit) Hashtbl.t;
      (* threads between their Enqueue linearization and Block's verdict *)
  departing : (Tid.t, unit) Hashtbl.t;
      (* threads pulled out by an alert but whose AlertResume has not yet
         linearized: still abstractly members of c, so Broadcast must list
         them in its removal to establish c_post = {} *)
  k : keys;
}

(* Forward reference to [signal], for the chaos hook registered in
   [create] (the definition order puts signal after create). *)
let chaos_signal : (t -> unit) ref = ref (fun _ -> ())

let create pkg =
  let evc = Firefly.Eventcount.create () in
  let interest = Ops.alloc 1 in
  (* interest is faa'd/read outside the spin-lock by design (the
     conservative nub-skip test); the eventcount's advance-under-lock /
     racy-read-at-enqueue is the paper's wakeup-waiting cover. *)
  let n = Printf.sprintf "cond#%d" interest in
  Probe.register_word interest M.W_atomic (n ^ ".interest");
  (* The interest word doubles as the condition's object id; name it so
     profile reports say "cond#N" rather than the word's registry name. *)
  Probe.register_lock interest n;
  Probe.register_word
    (Firefly.Eventcount.value_addr evc)
    M.W_eventcount (n ^ ".evc");
  let c =
    {
      pkg;
      evc;
      interest;
      q = Tqueue.create ();
      window = Hashtbl.create 8;
      departing = Hashtbl.create 8;
      k = keys n;
    }
  in
  (* Chaos hook: a spurious wakeup is a package-level Signal — the spec's
     subset ENSURES permits waking nobody-in-particular — never a raw
     machine wake, which could violate Resume's WHEN.  [signal] is defined
     below; the hook closes over a forward reference. *)
  Probe.register_chaos (n ^ ".spurious")
    (fun k -> for _ = 1 to max 1 k do !chaos_signal c done);
  c

let id c = c.interest
let queued c = Tqueue.length c.q

type wake = Stale | Alerted_now | Woken

(* The Nub's Block(c, i): under the spin-lock, compare i with the current
   eventcount.  Unequal: a Signal/Broadcast intervened since our Enqueue —
   return at once (the wakeup-waiting race cover).  Equal: sleep on c's
   queue.  An alertable block that already has an alert pending departs
   immediately instead of sleeping. *)
let block ?timeout c i ~alertable =
  let self = Ops.self () in
  Spinlock.acquire ?obs:c.k.spin c.pkg.lock;
  let cur = Firefly.Eventcount.read c.evc in
  if cur <> i then begin
    Hashtbl.remove c.window self;
    Spinlock.release c.pkg.lock;
    Probe.counter c.k.stale_blocks 1;
    Stale
  end
  else if alertable && Alerts.pending c.pkg.alerts self then begin
    Hashtbl.remove c.window self;
    Hashtbl.replace c.departing self ();
    Spinlock.release c.pkg.lock;
    Alerted_now
  end
  else begin
    Hashtbl.remove c.window self;
    Tqueue.push c.q self;
    Probe.counter c.k.blocks 1;
    Probe.gauge_max c.k.queue_hwm (Tqueue.length c.q);
    if alertable then
      Alerts.register c.pkg.alerts self (fun () ->
          (* Cancellation, run by Alert under the spin-lock. *)
          ignore (Tqueue.remove c.q self);
          Hashtbl.replace c.departing self ();
          Probe.handoff ~obj:(id c) self;
          Ops.ready self);
    (match timeout with
    | Some cycles -> Probe.set_timeout ~cycles
    | None -> ());
    Probe.will_block (id c);
    Ops.deschedule_and_clear (Spinlock.addr c.pkg.lock);
    Woken
  end

(* Wait's first half, shared by every variant: Enqueue, release the mutex,
   Block.  Enqueue linearizes at the eventcount read: event emission,
   window entry and the read are one atomic instruction.  The wakeup span
   ends here, before the re-acquire, so a thread's spans stay properly
   nested ("held" begins at the winning TAS); the full Wait latency —
   enqueue to re-acquired — is sampled by [left]. *)
let enqueue_and_block ?timeout c m self ~proc ~count ~alertable =
  Probe.counter count 1;
  Probe.span_begin ~cat:"cond" c.k.wait_span;
  ignore (Ops.faa c.interest 1);
  let i =
    Ops.mem_emit
      (M.M_read (Firefly.Eventcount.value_addr c.evc))
      (fun _ ->
        Hashtbl.replace c.window self ();
        if Probe.tracing () then
          Probe.emit { self; action = Enqueue { proc; m = Mutex.id m; c = id c } })
  in
  Mutex.unlock_internal m ~event:ignore;
  let wake = block ?timeout c i ~alertable in
  Probe.span_end ?sample:c.k.wakeup_cycles c.k.wait_span;
  wake

(* After the re-acquire: the Wait latency, and our interest withdrawn. *)
let left c ~t_start =
  Probe.sample c.k.wait_cycles (Probe.now () - t_start);
  ignore (Ops.faa c.interest (-1))

let wait_generic c m ~proc ~alertable =
  let self = Ops.self () in
  let t_start = Probe.now () in
  let wake = enqueue_and_block c m self ~proc ~count:c.k.waits ~alertable in
  let raise_it =
    alertable
    && (wake = Alerted_now
       || (wake = Woken && Alerts.take_woken_by_alert c.pkg.alerts self)
       || Alerts.pending c.pkg.alerts self
          (* sampled once, here: an alert landing after this point is not
             honoured this time round — the implementation's
             non-determinism the paper's incident 2 legitimised *))
  in
  (* Re-acquire, linearizing Resume / AlertResume at the winning TAS. *)
  let cid = id c in
  (if alertable then
     Mutex.lock_internal m ~event:(fun () ->
         Hashtbl.remove c.departing self;
         if raise_it then Alerts.consume_pending c.pkg.alerts self;
         if Probe.tracing () then
           Probe.emit
             { self;
               action = AlertResume { m = Mutex.id m; c = cid; alerted = raise_it } })
   else
     Mutex.lock_internal m ~event:(if not (Probe.tracing ()) then ignore else fun () ->
         Probe.emit { self; action = Resume { m = Mutex.id m; c = cid } }));
  left c ~t_start;
  if raise_it then raise Sync_intf.Alerted

let wait c m = wait_generic c m ~proc:Wait ~alertable:false
let alert_wait c m = wait_generic c m ~proc:AlertWait ~alertable:true

(* TimedWait = Enqueue; TimedResume.  The timer lives host-side in the
   machine; the driver fires it between steps and wakes us.  On waking we
   self-service: under the spin-lock, try to pull ourselves off the queue.
   Winning means we really expired — mark [departing] (still abstractly a
   member of c until TimedResume linearizes, so a racing Broadcast lists
   us in its removal set) and raise once the mutex is back.  Losing the
   race means a Signal/Broadcast dequeued us concurrently: the expiry
   converts into a normal resume and the wakeup is not lost. *)
let timed_wait c m ~timeout =
  let self = Ops.self () in
  let t_start = Probe.now () in
  let wake =
    enqueue_and_block ~timeout c m self ~proc:TimedWait
      ~count:c.k.timed_waits ~alertable:false
  in
  let timed_out =
    wake = Woken
    && Probe.take_timeout_fired ()
    && begin
         Spinlock.acquire ?obs:c.k.spin c.pkg.lock;
         let still_queued = Tqueue.remove c.q self in
         if still_queued then Hashtbl.replace c.departing self ();
         Spinlock.release c.pkg.lock;
         still_queued
       end
  in
  Probe.cancel_timeout ();
  let cid = id c in
  Mutex.lock_internal m ~event:(fun () ->
      Hashtbl.remove c.departing self;
      if Probe.tracing () then
        Probe.emit { self; action = TimedResume { m = Mutex.id m; c = cid; timed_out } });
  left c ~t_start;
  if timed_out then begin
    Probe.counter c.k.timeouts 1;
    raise Sync_intf.Timed_out
  end

(* Signal and Broadcast: user code skips the Nub when nobody is (or is
   committing to be) waiting; otherwise, under the spin-lock, advance the
   eventcount — atomically computing and logging the removal set — and
   ready the dequeued threads. *)
let wake_some c ~take_all =
  let self = Ops.self () in
  Probe.counter (if take_all then c.k.broadcasts else c.k.signals) 1;
  Probe.counter c.k.wakeup_waiting_hits 0;
  let emit removed =
    let c = id c in
    if Probe.tracing () then begin
      let action =
        if take_all then Spec_trace.Broadcast { c; removed } else Signal { c; removed }
      in
      Probe.emit { self; action }
    end
  in
  let skipped =
    c.pkg.fast_path
    && Ops.mem_emit (M.M_read c.interest) (fun v -> if v = 0 then emit [])
       = 0
  in
  if skipped then Probe.counter c.k.nub_skips 1
  else begin
    Ops.incr_counter nub_signal_count;
    let to_ready = ref [] in
    Spinlock.acquire ?obs:c.k.spin c.pkg.lock;
    ignore
      (Ops.mem_emit
         (M.M_faa (Firefly.Eventcount.value_addr c.evc, 1))
         (fun _ ->
           let from_q =
             if take_all then Tqueue.pop_all c.q
             else match Tqueue.pop c.q with Some t -> [ t ] | None -> []
           in
           let grab tbl = Hashtbl.fold (fun t () acc -> t :: acc) tbl [] in
           let from_window = grab c.window in
           let from_departing = grab c.departing in
           Hashtbl.reset c.window;
           List.iter (Alerts.unregister c.pkg.alerts) from_q;
           to_ready := from_q;
           (* A non-empty window is exactly the paper's wakeup-waiting
              race: this Signal/Broadcast landed between another thread's
              Enqueue linearization and its Block verdict. *)
           if from_window <> [] then
             Probe.counter c.k.wakeup_waiting_hits
               (List.length from_window);
           emit (from_q @ from_window @ from_departing)));
    List.iter
      (fun t ->
        Probe.handoff ~obj:(id c) t;
        Ops.ready t)
      !to_ready;
    Spinlock.release c.pkg.lock
  end

let signal c = wake_some c ~take_all:false
let broadcast c = wake_some c ~take_all:true
let () = chaos_signal := signal
