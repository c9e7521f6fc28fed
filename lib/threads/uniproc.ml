module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Tid = Threads_util.Tid

type sync = (module Sync_intf.SYNC with type thread = Tid.t)

type mu = { mutable holder : Tid.t option; mq : Tid.t Tqueue.t; mid : int }

type cond = {
  cq : Tid.t Tqueue.t;
  departing : (Tid.t, unit) Hashtbl.t;
  cid : int;
}

type sem = { mutable avail : bool; sq : Tid.t Tqueue.t; sid : int }

type state = {
  mutable pending : Tid.Set.t;
  cancels : (Tid.t, unit -> unit) Hashtbl.t;
  woken : (Tid.t, unit) Hashtbl.t;
  scratch : int;  (* dummy word for deschedule_and_clear *)
  mutable next_id : int;
}

let fresh_id st =
  st.next_id <- st.next_id + 1;
  st.next_id

(* Commit an atomic action: run [f], which emits its event, in one
   instruction.  Each event is built only when the run is traced. *)
let atomically f = ignore (Ops.mem_emit M.M_none (fun _ -> f ()))
let emit = M.Probe.emit
let tracing = M.Probe.tracing

(* DPOR dependence declarations: this package's shared state lives in
   host data structures (holder fields, Tqueues, the alert tables), not
   machine words, so each atomic action declares the objects it touches
   ({!M.Probe.touch} — charge-free, no-op unless the explorer enabled
   footprints).  Object ids come from [fresh_id] (1, 2, ...); id 0 is
   reserved for the package-wide alert state. *)
let touch = M.Probe.touch
let touch_alerts () = M.Probe.touch 0

let block st = Ops.deschedule_and_clear st.scratch

(* Ready [t], handing it object [obj] (the profiler's wake edge). *)
let ready ~obj t =
  M.Probe.handoff ~obj t;
  Ops.ready t

(* Hand the next queued acquirer of [m] a chance; it re-checks on wake. *)
let ready_acquirer m =
  match Tqueue.pop m.mq with Some t -> ready ~obj:m.mid t | None -> ()

let take_woken st self =
  if Hashtbl.mem st.woken self then begin
    Hashtbl.remove st.woken self;
    true
  end
  else false

let rec lock_loop st m ~event =
  let self = Ops.self () in
  let got = ref false in
  atomically (fun () ->
      touch m.mid;
      match m.holder with
      | None ->
        m.holder <- Some self;
        M.Probe.lock_acquired m.mid;
        got := true;
        event ()
      | Some _ ->
        M.Probe.lock_attempted m.mid;
        Tqueue.push m.mq self);
  if not !got then begin
    M.Probe.will_block m.mid;
    block st;
    lock_loop st m ~event
  end

let unlock _st m ~event =
  atomically (fun () ->
      touch m.mid;
      m.holder <- None;
      M.Probe.lock_released m.mid;
      event ());
  ready_acquirer m

let wait_generic st c m ~proc ~alertable =
  let self = Ops.self () in
  let alerted_now = ref false in
  (* Enqueue: join c and release m in one atomic action.  An alertable
     wait with an alert already pending joins c only abstractly (the
     departing set) and skips the sleep — AlertResume will raise. *)
  atomically (fun () ->
      touch m.mid;
      touch c.cid;
      if alertable then touch_alerts ();
      (if alertable && Tid.Set.mem self st.pending then begin
         alerted_now := true;
         Hashtbl.replace c.departing self ()
       end
       else begin
         Tqueue.push c.cq self;
         if alertable then
           Hashtbl.replace st.cancels self (fun () ->
               touch c.cid;
               ignore (Tqueue.remove c.cq self);
               Hashtbl.replace c.departing self ();
               ready ~obj:c.cid self)
       end);
      m.holder <- None;
      M.Probe.lock_released m.mid;
      if tracing () then emit { self; action = Enqueue { proc; m = m.mid; c = c.cid } });
  ready_acquirer m;
  if not !alerted_now then begin
    M.Probe.will_block c.cid;
    block st
  end;
  if alertable then touch_alerts ();
  let raise_it =
    alertable
    && (!alerted_now || take_woken st self || Tid.Set.mem self st.pending)
  in
  Hashtbl.remove st.cancels self;
  let event =
    if alertable then (fun () ->
      Hashtbl.remove c.departing self;
      if raise_it then st.pending <- Tid.Set.remove self st.pending;
      if tracing () then
        emit { self; action = AlertResume { m = m.mid; c = c.cid; alerted = raise_it } })
    else if not (tracing ()) then ignore
    else fun () -> emit { self; action = Resume { m = m.mid; c = c.cid } }
  in
  lock_loop st m ~event;
  if raise_it then raise Sync_intf.Alerted

(* TimedWait: the self-service dequeue happens atomically with the
   TimedResume emission at mutex re-acquisition, so "did we really time
   out" and the event agree by construction: if a Signal/Broadcast
   dequeued us first, the expiry converts into a normal resume. *)
let timed_wait_impl st c m ~timeout =
  let self = Ops.self () in
  atomically (fun () ->
      touch m.mid;
      touch c.cid;
      Tqueue.push c.cq self;
      m.holder <- None;
      M.Probe.lock_released m.mid;
      if tracing () then
        emit { self; action = Enqueue { proc = TimedWait; m = m.mid; c = c.cid } });
  ready_acquirer m;
  M.Probe.set_timeout ~cycles:timeout;
  M.Probe.will_block c.cid;
  block st;
  let timed_out = ref false in
  lock_loop st m ~event:(fun () ->
      touch c.cid;
      if M.Probe.take_timeout_fired () && Tqueue.remove c.cq self then
        timed_out := true;
      M.Probe.cancel_timeout ();
      if tracing () then
        emit
          { self;
            action = TimedResume { m = m.mid; c = c.cid; timed_out = !timed_out } });
  if !timed_out then raise Sync_intf.Timed_out

(* TimedP: when the bit is free we always take it, even with the timer
   already fired (RETURNS WHEN s = available has no timeout conjunct) —
   which also makes a V racing with our expiry impossible to lose. *)
let timed_p_impl st s ~timeout =
  let self = Ops.self () in
  M.Probe.set_timeout ~cycles:timeout;
  let rec loop () =
    let outcome = ref `Blocked in
    atomically (fun () ->
        touch s.sid;
        if s.avail then begin
          s.avail <- false;
          outcome := `Got;
          if tracing () then
            emit { self; action = TimedP { s = s.sid; timed_out = false } }
        end
        else if M.Probe.take_timeout_fired () then begin
          outcome := `Expired;
          ignore (Tqueue.remove s.sq self);
          if tracing () then
            emit { self; action = TimedP { s = s.sid; timed_out = true } }
        end
        else Tqueue.push s.sq self);
    match !outcome with
    | `Got -> M.Probe.cancel_timeout ()
    | `Expired ->
      M.Probe.cancel_timeout ();
      raise Sync_intf.Timed_out
    | `Blocked ->
      M.Probe.will_block s.sid;
      block st;
      loop ()
  in
  loop ()

let wake_cond st c ~take_all ~self =
  let to_ready = ref [] in
  atomically (fun () ->
      touch c.cid;
      touch_alerts ();
      let from_q =
        if take_all then Tqueue.pop_all c.cq
        else match Tqueue.pop c.cq with Some t -> [ t ] | None -> []
      in
      let from_departing =
        Hashtbl.fold (fun t () acc -> t :: acc) c.departing []
      in
      List.iter (fun t -> Hashtbl.remove st.cancels t) from_q;
      to_ready := from_q;
      if tracing () then begin
        let removed = from_q @ from_departing in
        let c = c.cid in
        let action =
          if take_all then Spec_trace.Broadcast { c; removed } else Signal { c; removed }
        in
        emit { self; action }
      end);
  List.iter (ready ~obj:c.cid) !to_ready

let rec p_loop st s ~alertable ~event =
  let self = Ops.self () in
  let outcome = ref `Blocked in
  atomically (fun () ->
      touch s.sid;
      if alertable then touch_alerts ();
      if s.avail then begin
        s.avail <- false;
        outcome := `Got;
        event ()
      end
      else if alertable && Tid.Set.mem self st.pending then
        outcome := `Alerted
      else begin
        Tqueue.push s.sq self;
        if alertable then
          Hashtbl.replace st.cancels self (fun () ->
              touch s.sid;
              ignore (Tqueue.remove s.sq self);
              ready ~obj:s.sid self)
      end);
  match !outcome with
  | `Got -> `Acquired
  | `Alerted -> `Alerted
  | `Blocked ->
    M.Probe.will_block s.sid;
    block st;
    if alertable then touch_alerts ();
    Hashtbl.remove st.cancels self;
    if alertable && take_woken st self then `Alerted
    else p_loop st s ~alertable ~event

let make () : sync =
  let scratch = Ops.alloc 1 in
  (* Every blocking thread clears this shared word with no lock held; it
     carries no data, so exempt it from race analysis. *)
  M.Probe.register_word scratch M.W_atomic "uniproc.scratch";
  let st =
    {
      pending = Tid.Set.empty;
      cancels = Hashtbl.create 8;
      woken = Hashtbl.create 8;
      scratch;
      next_id = 0;
    }
  in
  (module struct
    type mutex = mu
    type condition = cond
    type semaphore = sem
    type thread = Tid.t

    let mutex () =
      let mid = fresh_id st in
      M.Probe.register_lock mid (Printf.sprintf "mutex#%d" mid);
      { holder = None; mq = Tqueue.create (); mid }

    let condition () =
      let cid = fresh_id st in
      M.Probe.register_lock cid (Printf.sprintf "cond#%d" cid);
      let c = { cq = Tqueue.create (); departing = Hashtbl.create 4; cid } in
      (* Chaos hook: spurious wakeup = a real package-level Signal. *)
      M.Probe.register_chaos
        (Printf.sprintf "cond#%d.spurious" cid)
        (fun k ->
          for _ = 1 to max 1 k do
            wake_cond st c ~take_all:false ~self:(Ops.self ())
          done);
      c

    let semaphore () =
      let sid = fresh_id st in
      M.Probe.register_lock sid (Printf.sprintf "sem#%d" sid);
      { avail = true; sq = Tqueue.create (); sid }

    let acquire m =
      let self = Ops.self () in
      lock_loop st m ~event:(if not (tracing ()) then ignore else fun () ->
          emit { self; action = Acquire { m = m.mid } })

    let release m =
      let self = Ops.self () in
      unlock st m ~event:(if not (tracing ()) then ignore else fun () ->
          emit { self; action = Release { m = m.mid } })

    let with_lock m f =
      acquire m;
      Fun.protect ~finally:(fun () -> release m) f

    let wait m c = wait_generic st c m ~proc:Wait ~alertable:false
    let timed_wait m c ~timeout = timed_wait_impl st c m ~timeout

    let signal c = wake_cond st c ~take_all:false ~self:(Ops.self ())
    let broadcast c = wake_cond st c ~take_all:true ~self:(Ops.self ())

    let p s =
      let self = Ops.self () in
      match
        p_loop st s ~alertable:false
          ~event:(if tracing () then fun () -> emit { self; action = P { s = s.sid } }
                  else ignore)
      with
      | `Acquired -> ()
      | `Alerted -> assert false

    let v s =
      let self = Ops.self () in
      atomically (fun () ->
          touch s.sid;
          s.avail <- true;
          if tracing () then emit { self; action = V { s = s.sid } });
      match Tqueue.pop s.sq with Some t -> ready ~obj:s.sid t | None -> ()

    let alert target =
      let self = Ops.self () in
      atomically (fun () ->
          touch_alerts ();
          st.pending <- Tid.Set.add target st.pending;
          if tracing () then emit { self; action = Alert { t = target } });
      match Hashtbl.find_opt st.cancels target with
      | Some cancel ->
        Hashtbl.remove st.cancels target;
        Hashtbl.replace st.woken target ();
        cancel ()
      | None -> ()

    let timed_p s ~timeout = timed_p_impl st s ~timeout
    let () = M.Probe.register_chaos "pkg.alert" alert

    let test_alert () =
      let self = Ops.self () in
      let was = ref false in
      atomically (fun () ->
          touch_alerts ();
          was := Tid.Set.mem self st.pending;
          st.pending <- Tid.Set.remove self st.pending;
          if tracing () then emit { self; action = TestAlert { result = !was } });
      !was

    let alert_wait m c = wait_generic st c m ~proc:AlertWait ~alertable:true

    let alert_p s =
      let self = Ops.self () in
      match
        p_loop st s ~alertable:true ~event:(if not (tracing ()) then ignore else fun () ->
            emit { self; action = AlertP { s = s.sid; alerted = false } })
      with
      | `Acquired -> ()
      | `Alerted ->
        atomically (fun () ->
            touch_alerts ();
            st.pending <- Tid.Set.remove self st.pending;
            if tracing () then
              emit { self; action = AlertP { s = s.sid; alerted = true } });
        raise Sync_intf.Alerted

    let self () = Ops.self ()
    let fork f = Ops.spawn f
    let join = Ops.join
    let yield = Ops.yield
  end)

let build body machine =
  ignore (Firefly.Machine.spawn_root machine (fun () -> body (make ())))

let run body =
  Firefly.Interleave.run ~strategy:(Firefly.Sched.round_robin ()) (build body)
