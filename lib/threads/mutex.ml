module Ops = Firefly.Machine.Ops
module M = Firefly.Machine
module Probe = Firefly.Machine.Probe

(* The instrument names of one mutex, built when it is created.  The
   histograms that sample a span's duration are options, passed straight
   to [Probe.span_end ?sample]. *)
type keys = {
  acquires : string; fast_path_hits : string; nub_acquires : string;
  nub_releases : string; blocks : string; releases : string;
  queue_hwm : string; wait_cycles : string option;
  hold_cycles : string option;
  wait_span : string; held_span : string; spin : Spinlock.obs option;
}

let keys n =
  let k suffix = n ^ suffix in
  { acquires = k ".acquires"; fast_path_hits = k ".fast_path_hits";
    nub_acquires = k ".nub_acquires"; nub_releases = k ".nub_releases";
    blocks = k ".blocks"; releases = k ".releases"; queue_hwm = k ".queue_hwm";
    wait_cycles = Some (k ".wait_cycles");
    hold_cycles = Some (k ".hold_cycles");
    wait_span = "wait " ^ n; held_span = "held " ^ n;
    spin = Some (Spinlock.obs n) }

type t = {
  pkg : Pkg.t;
  bit : int;  (* the Lock-bit *)
  waiters : int;  (* |queue|, maintained under the spin-lock *)
  q : Tqueue.t;
  k : keys;
}

let nub_acquire_count = M.counter_id "nub.acquire"
let nub_release_count = M.counter_id "nub.release"

let create pkg =
  let bit = Ops.alloc 1 in
  let waiters = Ops.alloc 1 in
  let n = Printf.sprintf "mutex#%d" bit in
  Probe.register_word bit M.W_lock n;
  (* Read racily by the release fast path; the paper sanctions this. *)
  Probe.register_word waiters M.W_atomic (n ^ ".waiters");
  { pkg; bit; waiters; q = Tqueue.create (); k = keys n }

let id m = m.bit

(* The test-and-set.  A win records the acquisition — per-object counters
   and the start of the "held" span whose duration feeds the hold-time
   histogram — and runs [event], atomically with the instruction.
   Returns the old bit. *)
let tas m ~fast ~event =
  Ops.mem_emit (M.M_tas m.bit) (fun old ->
      if old = 0 then begin
        Probe.lock_acquired m.bit;
        Probe.counter m.k.acquires 1;
        Probe.counter m.k.fast_path_hits (if fast then 1 else 0);
        Probe.span_begin ~cat:"mutex" m.k.held_span;
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
   dequeued. *)
let block m =
  Probe.counter m.k.blocks 1;
  Probe.span_begin ~cat:"mutex" m.k.wait_span;
  Probe.will_block m.bit;
  Ops.deschedule_and_clear (Spinlock.addr m.pkg.lock);
  Probe.span_end ?sample:m.k.wait_cycles m.k.wait_span

(* Nub subroutine for Acquire: under the spin-lock, enqueue the caller and
   re-test the Lock-bit.  Still held: block.  Free: dequeue ourselves,
   release the spin-lock.  Either way the caller retries from the
   test-and-set. *)
let nub_acquire m =
  enter_nub m;
  let self = Ops.self () in
  Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
  enqueue m self;
  if Ops.read m.bit <> 0 then block m
  else begin
    ignore (Tqueue.remove m.q self);
    Ops.write m.waiters (Tqueue.length m.q);
    Spinlock.release m.pkg.lock
  end

(* Nub subroutine for Release: take one queued thread (if any) and ready
   it. *)
let nub_release m =
  Ops.incr_counter nub_release_count;
  Probe.counter m.k.nub_releases 1;
  Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
  (match Tqueue.pop m.q with
  | Some t ->
    Ops.write m.waiters (Tqueue.length m.q);
    Probe.handoff ~obj:m.bit t;
    Ops.ready t
  | None -> ());
  Spinlock.release m.pkg.lock

let rec lock_loop m ~first ~event =
  if m.pkg.fast_path then begin
    if tas m ~fast:first ~event <> 0 then begin
      nub_acquire m;
      lock_loop m ~first:false ~event
    end
  end
  else begin
    (* Ablation: every Acquire goes through the Nub. *)
    enter_nub m;
    Spinlock.acquire ?obs:m.k.spin m.pkg.lock;
    if tas m ~fast:false ~event = 0 then Spinlock.release m.pkg.lock
    else begin
      enqueue m (Ops.self ());
      block m;
      lock_loop m ~first:false ~event
    end
  end

let lock_internal m ~event = lock_loop m ~first:true ~event

let unlock_internal m ~event =
  ignore
    (Ops.mem_emit (M.M_clear m.bit) (fun _ ->
         Probe.lock_released m.bit;
         Probe.counter m.k.releases 1;
         Probe.span_end ?sample:m.k.hold_cycles m.k.held_span;
         event ()));
  if m.pkg.fast_path then begin
    if Ops.read m.waiters <> 0 then nub_release m
  end
  else nub_release m

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
