exception Alerted = Taos_threads.Sync_intf.Alerted

(* The Nub's thread queues, touched only under the global spin-lock. *)
module Tqueue = Taos_threads.Tqueue

type thread = {
  tid : int;
  parker : Parker.t;
  mutable domain : unit Domain.t option;
  mutable woken_by_alert : bool;  (* written under the nub lock *)
}

(* One package per process, like one Threads package per address space. *)
let nub = Spin.create ()
let tid_counter = Atomic.make 0

let new_thread () =
  {
    tid = Atomic.fetch_and_add tid_counter 1;
    parker = Parker.create ();
    domain = None;
    woken_by_alert = false;
  }

let key = Domain.DLS.new_key new_thread

(* Alerting state, under the nub lock. *)
let pending : (int, unit) Hashtbl.t = Hashtbl.create 16
let cancels : (int, unit -> unit) Hashtbl.t = Hashtbl.create 16

(* ---- linearization-point tracing ----

   When a sink is installed every visible atomic action appends one
   {!Spec_trace.event}, emitted while holding the nub spin-lock at the
   very instant the action commits (the winning CAS, the bit clear, the
   eventcount read or bump).  Holding the nub across commit + append means
   the sink's order is a legal linearization of the run, so the trace can
   be replayed against the specification by the same checker the
   simulator uses.  Untraced runs keep the lock-free fast paths — the
   [traced ()] test is one atomic load.  Inlined, with closed [ev] and
   [on_alerted] hooks that take the object, they allocate nothing. *)
let sink : Spec_trace.Sink.t option Atomic.t = Atomic.make None

let set_trace_sink s = Atomic.set sink s
let traced () = match Atomic.get sink with Some _ -> true | None -> false

let emit ev =
  match Atomic.get sink with
  | Some k -> Spec_trace.Sink.emit k ev
  | None -> ()

(* Trace identities for mutexes/conditions/semaphores. *)
let obj_ids = Atomic.make 0
let new_obj_id () = Atomic.fetch_and_add obj_ids 1

let reset () =
  Spin.acquire nub;
  Hashtbl.reset pending;
  Hashtbl.reset cancels;
  Spin.release nub

module Sync = struct
  type nonrec thread = thread

  type mutex = {
    id : int;
    bit : bool Atomic.t;
    mq : thread Tqueue.t;
    waiters : int Atomic.t;  (* |mq|, written under the nub lock *)
  }

  type condition = {
    cid : int;
    evc : int Atomic.t;
    interest : int Atomic.t;
    cq : thread Tqueue.t;
    (* Traced runs only, under the nub lock: [window] holds threads
       between their Enqueue event (the eventcount read) and parking or
       noticing staleness — the wakeup-waiting window; [departing] holds
       alerted waiters that are abstractly still condition members until
       their AlertResume commits.  Signal/Broadcast must list both in
       [removed] for the abstract condition to empty correctly. *)
    window : (int, unit) Hashtbl.t;
    departing : (int, unit) Hashtbl.t;
  }

  type semaphore = mutex  (* "the implementation of semaphores is identical" *)

  let self () = Domain.DLS.get key

  let mutex () =
    {
      id = new_obj_id ();
      bit = Atomic.make false;
      mq = Tqueue.create ();
      waiters = Atomic.make 0;
    }

  let semaphore () = mutex ()

  let condition () =
    {
      cid = new_obj_id ();
      evc = Atomic.make 0;
      interest = Atomic.make 0;
      cq = Tqueue.create ();
      window = Hashtbl.create 8;
      departing = Hashtbl.create 8;
    }

  (* ---- mutex / semaphore core ---- *)

  let try_bit m = Atomic.compare_and_set m.bit false true

  (* Traced acquisition point: take the nub so the winning test-and-set
     and its event append are one atomic step.  [ev m] emits the event; it
     runs only on the winning CAS of a traced run and may carry
     bookkeeping that must be atomic with the event (departing/pending
     consumption). *)
  let[@inline] try_bit_ev m ~ev =
    if not (traced ()) then try_bit m
    else begin
      Spin.acquire nub;
      let ok = try_bit m in
      if ok then ev m;
      Spin.release nub;
      ok
    end

  (* The Nub subroutine for Acquire/P: enqueue, re-test, park or retry.
     [alertable] adds the pending check and cancellation registration.
     Returns [`Alerted] only for alertable calls; [on_alerted m] is the
     traced-run hook for that outcome — invoked under the nub hold that
     decided it, it consumes the pending alert and returns the Raise
     event. *)
  let rec slow_lock m ~alertable ~ev ~on_alerted =
    let me = self () in
    Spin.acquire nub;
    if alertable && Hashtbl.mem pending me.tid then begin
      if traced () then emit (on_alerted m);
      Spin.release nub;
      `Alerted
    end
    else begin
      Tqueue.push m.mq me;
      Atomic.incr m.waiters;
      if Atomic.get m.bit then begin
        if alertable then
          Hashtbl.replace cancels me.tid (fun () ->
              ignore (Tqueue.remove m.mq me);
              Atomic.decr m.waiters;
              me.woken_by_alert <- true;
              Parker.unpark me.parker);
        Spin.release nub;
        Parker.park me.parker;
        let alerted =
          alertable
          &&
          begin
            Spin.acquire nub;
            Hashtbl.remove cancels me.tid;
            let w = me.woken_by_alert in
            me.woken_by_alert <- false;
            if w && traced () then emit (on_alerted m);
            Spin.release nub;
            w
          end
        in
        if alerted then `Alerted
        else if try_bit_ev m ~ev then `Acquired
        else slow_lock m ~alertable ~ev ~on_alerted
      end
      else begin
        ignore (Tqueue.remove m.mq me);
        Atomic.decr m.waiters;
        Spin.release nub;
        if try_bit_ev m ~ev then `Acquired
        else slow_lock m ~alertable ~ev ~on_alerted
      end
    end

  let[@inline] lock m ~alertable ~ev ~on_alerted =
    if try_bit_ev m ~ev then `Acquired
    else slow_lock m ~alertable ~ev ~on_alerted

  let no_alert _ = assert false

  (* [ev m] emits the Release/V event of a traced run; [ignore] for the
     internal release inside Wait, whose abstract transition already
     happened at the Enqueue event. *)
  let[@inline] unlock_ev m ~ev =
    (if not (traced ()) then Atomic.set m.bit false
     else begin
       Spin.acquire nub;
       Atomic.set m.bit false;
       ev m;
       Spin.release nub
     end);
    if Atomic.get m.waiters <> 0 then begin
      Spin.acquire nub;
      (match Tqueue.pop m.mq with
      | Some t ->
        Atomic.decr m.waiters;
        Hashtbl.remove cancels t.tid;
        Parker.unpark t.parker
      | None -> ());
      Spin.release nub
    end

  let unlock m = unlock_ev m ~ev:ignore

  let[@inline] lock_plain m ~ev =
    match lock m ~alertable:false ~ev ~on_alerted:no_alert with
    | `Acquired -> ()
    | `Alerted -> assert false

  let acquire m =
    lock_plain m ~ev:(fun m ->
        emit { self = (self ()).tid; action = Acquire { m = m.id } })

  let release m =
    unlock_ev m ~ev:(fun m ->
        emit { self = (self ()).tid; action = Release { m = m.id } })

  (* Not [Fun.protect], which allocates its own closures. *)
  let with_lock m f =
    acquire m;
    match f () with
    | x ->
      release m;
      x
    | exception e ->
      release m;
      raise e

  let p s =
    lock_plain s ~ev:(fun s -> emit { self = (self ()).tid; action = P { s = s.id } })

  let v s =
    unlock_ev s ~ev:(fun s -> emit { self = (self ()).tid; action = V { s = s.id } })

  let alert_p s =
    let ev s =
      emit { self = (self ()).tid; action = AlertP { s = s.id; alerted = false } }
    in
    let on_alerted s =
      let me = self () in
      Hashtbl.remove pending me.tid;
      { Spec_trace.self = me.tid; action = AlertP { s = s.id; alerted = true } }
    in
    match lock s ~alertable:true ~ev ~on_alerted with
    | `Acquired -> ()
    | `Alerted ->
      Spin.acquire nub;
      Hashtbl.remove pending (self ()).tid;
      Spin.release nub;
      raise Alerted

  (* ---- condition variables ---- *)

  (* Block(c, i): sleep unless the eventcount moved since [i]. *)
  let block c i ~alertable =
    let me = self () in
    Spin.acquire nub;
    if Atomic.get c.evc <> i then begin
      (* A wake beat us here; its Signal/Broadcast event already listed us
         (it swept the window), so we are no longer an abstract member. *)
      Spin.release nub;
      `Stale
    end
    else if alertable && Hashtbl.mem pending me.tid then begin
      if traced () then begin
        Hashtbl.remove c.window me.tid;
        Hashtbl.replace c.departing me.tid ()
      end;
      Spin.release nub;
      `Alerted_now
    end
    else begin
      if traced () then Hashtbl.remove c.window me.tid;
      Tqueue.push c.cq me;
      if alertable then
        Hashtbl.replace cancels me.tid (fun () ->
            ignore (Tqueue.remove c.cq me);
            if traced () then Hashtbl.replace c.departing me.tid ();
            me.woken_by_alert <- true;
            Parker.unpark me.parker);
      Spin.release nub;
      Parker.park me.parker;
      `Woken
    end

  let wait_generic c m ~alertable =
    let me = self () in
    ignore (Atomic.fetch_and_add c.interest 1);
    let i =
      if not (traced ()) then Atomic.get c.evc
      else begin
        (* The Enqueue event linearizes at the eventcount read, while the
           mutex bit is still ours: abstractly it both joins the condition
           and frees the mutex, so the bit clear below emits nothing. *)
        Spin.acquire nub;
        let i = Atomic.get c.evc in
        Hashtbl.replace c.window me.tid ();
        let proc = if alertable then Spec_trace.AlertWait else Wait in
        emit { self = me.tid; action = Enqueue { proc; m = m.id; c = c.cid } };
        Spin.release nub;
        i
      end
    in
    unlock m;
    let wake = block c i ~alertable in
    let raise_it =
      alertable
      &&
      match wake with
      | `Alerted_now -> true
      | `Stale | `Woken ->
        Spin.acquire nub;
        Hashtbl.remove cancels me.tid;
        let w = me.woken_by_alert || Hashtbl.mem pending me.tid in
        me.woken_by_alert <- false;
        Spin.release nub;
        w
    in
    let ev _ =
      if alertable then begin
        Hashtbl.remove c.departing me.tid;
        if raise_it then Hashtbl.remove pending me.tid;
        emit
          { self = me.tid;
            action = AlertResume { m = m.id; c = c.cid; alerted = raise_it } }
      end
      else emit { self = me.tid; action = Resume { m = m.id; c = c.cid } }
    in
    lock_plain m ~ev;
    ignore (Atomic.fetch_and_add c.interest (-1));
    if raise_it then begin
      Spin.acquire nub;
      Hashtbl.remove pending me.tid;
      Spin.release nub;
      raise Alerted
    end

  let wait m c = wait_generic c m ~alertable:false
  let alert_wait m c = wait_generic c m ~alertable:true

  (* Timed waits need a deadline-aware parker; not implemented for the
     hardware backend (the chaos/timeout workloads gate on the feature). *)
  let timed_wait _m _c ~timeout:_ =
    failwith "multicore backend: timed_wait unsupported"

  let timed_p _s ~timeout:_ = failwith "multicore backend: timed_p unsupported"

  let wake_some c ~take_all =
    if not (traced ()) then begin
      if Atomic.get c.interest <> 0 then begin
        Spin.acquire nub;
        ignore (Atomic.fetch_and_add c.evc 1);
        let woken =
          if take_all then Tqueue.pop_all c.cq
          else match Tqueue.pop c.cq with Some t -> [ t ] | None -> []
        in
        List.iter
          (fun t ->
            Hashtbl.remove cancels t.tid;
            Parker.unpark t.parker)
          woken;
        Spin.release nub
      end
    end
    else begin
      (* Traced runs always bump the eventcount and always emit, even with
         nobody interested (Signal on an empty condition is a conforming
         no-op).  [removed] must cover every abstract member the wake
         dislodges: the queue pops, the whole wakeup-waiting window (those
         threads will find the count stale and return), and departing
         alerted waiters (already leaving; removing them twice is a spec
         no-op since removal of a non-member changes nothing). *)
      let me = self () in
      Spin.acquire nub;
      ignore (Atomic.fetch_and_add c.evc 1);
      let woken =
        if take_all then Tqueue.pop_all c.cq
        else match Tqueue.pop c.cq with Some t -> [ t ] | None -> []
      in
      let swept tbl = Hashtbl.fold (fun tid () acc -> tid :: acc) tbl [] in
      let removed =
        List.map (fun t -> t.tid) woken @ swept c.window @ swept c.departing
      in
      Hashtbl.reset c.window;
      emit
        { self = me.tid;
          action =
            (if take_all then Broadcast { c = c.cid; removed }
             else Signal { c = c.cid; removed }) };
      List.iter
        (fun t ->
          Hashtbl.remove cancels t.tid;
          Parker.unpark t.parker)
        woken;
      Spin.release nub
    end

  let signal c = wake_some c ~take_all:false
  let broadcast c = wake_some c ~take_all:true

  (* ---- alerting ---- *)

  let alert (t : thread) =
    Spin.acquire nub;
    Hashtbl.replace pending t.tid ();
    if traced () then
      emit { self = (self ()).tid; action = Alert { t = t.tid } };
    (match Hashtbl.find_opt cancels t.tid with
    | Some cancel ->
      Hashtbl.remove cancels t.tid;
      cancel ()
    | None -> ());
    Spin.release nub

  let test_alert () =
    let me = self () in
    Spin.acquire nub;
    let was = Hashtbl.mem pending me.tid in
    Hashtbl.remove pending me.tid;
    if traced () then emit { self = me.tid; action = TestAlert { result = was } };
    Spin.release nub;
    was

  (* ---- threads ---- *)

  let fork f =
    let t = new_thread () in
    let d =
      Domain.spawn (fun () ->
          Domain.DLS.set key t;
          f ())
    in
    t.domain <- Some d;
    t

  let join t =
    match t.domain with
    | Some d -> Domain.join d
    | None -> invalid_arg "Multicore.join: not a forked thread"

  let yield () = Domain.cpu_relax ()
end

(* The package is one-per-process (global nub, alert tables, trace
   sink), so two runs cannot overlap: a concurrent [reset] would wipe
   the other run's pending alerts mid-wait.  Serializing here makes the
   entry points safe to call from parallel matrix cells — the run
   inside occupies every core anyway, so nothing is lost. *)
let package_mu = Stdlib.Mutex.create ()

let exclusive body =
  Stdlib.Mutex.lock package_mu;
  Fun.protect ~finally:(fun () -> Stdlib.Mutex.unlock package_mu) body

let run body = exclusive body

let traced_run body =
  exclusive (fun () ->
      let s = Spec_trace.Sink.create () in
      reset ();
      set_trace_sink (Some s);
      Fun.protect ~finally:(fun () -> set_trace_sink None) (fun () ->
          let result = body () in
          (result, Spec_trace.Sink.events s)))
