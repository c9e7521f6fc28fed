module Tid = Threads_util.Tid

type status = Runnable | Blocked | Finished | Failed of exn

(* An interrupt routine tried to block (join or deschedule): its own
   exception, so fault plans that storm the interrupt level produce an
   actionable diagnostic rather than a bare [Failure]. *)
exception Interrupt_blocked of string

(* Status exception of a thread removed by [kill] (injected crash-stop). *)
exception Crash_stopped

let () =
  Printexc.register_printer (function
    | Interrupt_blocked what ->
      Some
        (Printf.sprintf
           "Interrupt_blocked(%s): interrupt routines cannot block — they \
            may only use non-blocking operations such as V"
           what)
    | Crash_stopped -> Some "Crash_stopped (injected processor crash-stop)"
    | _ -> None)

(* ---- fault injection (lib/fault) ----

   The chaos engine installs a wake filter that intercepts every
   package-level wakeup interrupt ([Ops.ready]) and may delay or drop it;
   it can also crash-stop a thread mid-run ([kill]).  Every injected fault
   is appended to the machine's cycle-stamped fault log so post-mortem
   reports can attribute blame.  With no filter installed and no timers
   armed, none of this code runs — an uninjected machine is cycle- and
   schedule-identical to one built before this layer existed. *)

type wake_verdict = Deliver | Delay of int | Drop

type fault = { f_seq : int; f_cycle : int; f_desc : string }

(* ---- the recording stream (see machine.mli) ----

   Spec actions, accesses, step footprints and causal edges go out as one
   [event] to the subscribers of its [kind]; the machine keeps none of
   them.  Publishing is host-side: no cycles, scheduling points or
   randomness. *)

type word_kind =
  | W_lock  (** TAS/clear mutual-exclusion word: spin-locks, mutex Lock-bits *)
  | W_sem  (** semaphore availability bit: V's clear releases to P's TAS *)
  | W_eventcount  (** monotone counter: advance releases to readers *)
  | W_atomic  (** deliberately unsynchronized single word (benign by design) *)
  | W_data  (** named ordinary data word; unregistered words are also data *)

type access_kind =
  | A_load
  | A_store
  | A_tas of bool  (** [true] = won the word (old value was 0) *)
  | A_clear
  | A_faa
  | A_lock_acq  (** package-level lock acquisition (addr = lock id) *)
  | A_lock_att  (** blocked/contended acquisition attempt *)
  | A_lock_rel
  | A_spawn of Tid.t
  | A_join of Tid.t

type access = {
  a_seq : int;
  a_tid : Tid.t;
  a_addr : int;  (** word address or lock id; [-1] for spawn/join *)
  a_kind : access_kind;
  a_locks : int list;  (** lock ids held (for [A_lock_acq]: before acquiring) *)
}

type wait_target =
  | On_obj of int  (** mutex / condition / semaphore id *)
  | On_thread of Tid.t  (** join *)
  | On_unknown  (** deschedule with no package annotation *)

type prof_kind =
  | Pr_run of int  (** merged run segment [pr_t, arg] of charged cycles *)
  | Pr_spawn of Tid.t  (** [pr_tid] spawned the child *)
  | Pr_block of wait_target * Tid.t option  (** what, owner at block *)
  | Pr_wake of Tid.t option * int option  (** waker, object handed off *)
  | Pr_wake_pending of Tid.t option * int option
      (** wakeup-waiting arm: the target was still runnable *)
  | Pr_finish

type prof_event = {
  pr_seq : int;
  pr_t : int;  (** cycle timestamp (segment start for [Pr_run]) *)
  pr_tid : Tid.t;  (** subject thread (the woken one for wake edges) *)
  pr_kind : prof_kind;
}

type stat =
  | St_count of string * int
  | St_sample of string * int
  | St_gauge of string * int
  | St_begin of string * string  (* category, name *)
  | St_end of string * string option  (* name, histogram of its duration *)
  | St_span of string * string * int * int  (* category, name, start, end *)

type event =
  | Ev_spec of Spec_trace.event
  | Ev_access of {
      tid : Tid.t;
      addr : int;
      kind : access_kind;
      locks : int list;
    }
  | Ev_touch of int * bool
  | Ev_prof of { tid : Tid.t; t : int; kind : prof_kind }
  | Ev_stat of { tid : Tid.t; t : int; stat : stat }

type kind = K_spec | K_access | K_touch | K_prof | K_stat

(* A memory operation bundled with trace emission; see Ops.mem_emit. *)
type mem_op =
  | M_none
  | M_read of int
  | M_tas of int
  | M_clear of int
  | M_faa of int * int

type _ Effect.t +=
  | E_read : int -> int Effect.t
  | E_write : int * int -> unit Effect.t
  | E_tas : int -> bool Effect.t
  | E_clear : int -> unit Effect.t
  | E_faa : int * int -> int Effect.t
  | E_alloc : int -> int Effect.t
  | E_self : Tid.t Effect.t
  | E_spawn : (unit -> unit) -> Tid.t Effect.t
  | E_join : Tid.t -> unit Effect.t
  | E_deschedule_and_clear : int -> unit Effect.t
  | E_ready : Tid.t -> unit Effect.t
  | E_tick : int -> unit Effect.t
  | E_counter : int -> unit Effect.t
  | E_yield : unit Effect.t
  | E_mem_emit : mem_op * (int -> unit) -> int Effect.t

(* Counter names are interned once, process-wide, into dense ids; each
   machine counts into an array indexed by id.  Interning takes a lock
   because runs of the matrix executor create objects on parallel
   domains. *)
type counter = int

let counter_ids : (string, counter) Hashtbl.t = Hashtbl.create 16
let counter_lock = Stdlib.Mutex.create ()

let counter_id name =
  Stdlib.Mutex.protect counter_lock (fun () ->
      match Hashtbl.find counter_ids name with
      | id -> id
      | exception Not_found ->
        let id = Hashtbl.length counter_ids in
        Hashtbl.add counter_ids name id;
        id)

module Ops = struct
  let read a = Effect.perform (E_read a)
  let write a v = Effect.perform (E_write (a, v))
  let tas a = Effect.perform (E_tas a)
  let clear a = Effect.perform (E_clear a)
  let faa a n = Effect.perform (E_faa (a, n))
  let alloc n = Effect.perform (E_alloc n)
  let self () = Effect.perform E_self
  let spawn f = Effect.perform (E_spawn f)
  let join t = Effect.perform (E_join t)
  let deschedule_and_clear a = Effect.perform (E_deschedule_and_clear a)
  let ready t = Effect.perform (E_ready t)
  let tick n = Effect.perform (E_tick n)
  let incr_counter id = Effect.perform (E_counter id)
  let yield () = Effect.perform E_yield
  let mem_emit op thunk = Effect.perform (E_mem_emit (op, thunk))
end

(* A paused thread: either not yet started, stopped at an effect awaiting
   its execution, or holding a unit continuation to resume (after a
   deschedule/join/yield). *)
type paused =
  | Fresh of (unit -> unit)
  | At_effect : 'a Effect.t * ('a, unit) Effect.Deep.continuation -> paused
  | Resume_unit of (unit, unit) Effect.Deep.continuation
  | Gone  (** finished or failed; no continuation *)

type thread = {
  tid : Tid.t;
  mutable status : status;
  mutable paused : paused;
  intr : bool;  (* interrupt context: must never block *)
  mutable wakeup_pending : bool;  (* Saltzer's wakeup-waiting switch *)
  mutable epoch : int;
      (* wake-episode counter, bumped at each delivered wake; a delayed
         wakeup captured in an earlier episode is stale and is discarded
         rather than spuriously waking a later block *)
  mutable joiners : Tid.t list;
  mutable held : int list;  (* lock ids held, most recently acquired first *)
  mutable spin : int;
      (* word this thread declared it spins on ([Probe.spin_on]), -1 when
         it is not in a declared spin *)
}

type t = {
  mutable mem : int array;
  mutable mem_used : int;
  mutable threads : thread array;  (* index = tid *)
  mutable nthreads : int;
  mutable nrunnable : int;
  mutable nrunnable_intr : int;  (* runnable interrupt-context threads *)
  mutable counts : int array;  (* index = interned counter id *)
  mutable total_instr : int;
  mutable total_cycles : int;
  words : (int, word_kind * string) Hashtbl.t;  (* addr -> classification *)
  lock_names : (int, string) Hashtbl.t;  (* lock id -> name, for reports *)
  owners : (int, Tid.t) Hashtbl.t;  (* lock id -> current holder *)
  pending_block : (Tid.t, wait_target) Hashtbl.t;
      (* set by Probe.will_block, consumed at the next deschedule *)
  pending_wake : (Tid.t, int) Hashtbl.t;
      (* target -> object id, set by Probe.handoff, consumed at the wake *)
  timers : (Tid.t, int) Hashtbl.t;  (* armed deadline per thread (cycles) *)
  timer_fired : (Tid.t, unit) Hashtbl.t;
      (* set when a timer wake was delivered, consumed by the timed-out
         thread to distinguish expiry from a Signal/V wake *)
  mutable wake_filter : (Tid.t -> wake_verdict) option;
  mutable delayed : (int * int * Tid.t) list;
      (* (due cycle, epoch at interception, target), unsorted *)
  mutable chaos_hooks : (string * (int -> unit)) list;  (* newest first *)
  killed : (Tid.t, unit) Hashtbl.t;  (* crash-stopped by [kill] *)
  mutable chaos_active : bool;
  mutable faults : fault list;  (* newest first; [faults] reverses *)
  mutable fault_count : int;
  mutable neg_ids : int;
      (* per-machine negative trace-id allocator (Hoare condition ids):
         machine-local so runs on parallel domains stay byte-identical *)
  (* subscribers per kind, in subscription order; [] = unobserved *)
  mutable on_spec : (event -> unit) list;
  mutable on_access : (event -> unit) list;
  mutable on_touch : (event -> unit) list;
  mutable on_prof : (event -> unit) list;
  mutable on_stat : (event -> unit) list;
  mutable slot : t option;
      (* [Some m] itself, built once for [step]; [None] once disposed *)
  mutable running : Tid.t;  (* the thread inside [step] *)
}

(* The machine whose thread is currently inside [step]; that thread is its
   [running] field.  Lets package code (and thunks running inside
   [mem_emit]) record observations as plain function calls — no effect
   performed, no scheduling point added, no cycle charged — which is what
   keeps an instrumented run cycle-identical to an uninstrumented one.  The
   run-matrix executor steps machines on parallel domains, so the slot is
   one cell per domain.  [step] reads the cell once, stores the machine's
   own [slot] and restores the caller's value on both exits: no
   [Domain.DLS.set] and no allocation per step. *)
type cell = { mutable cur : t option }

let current_key = Domain.DLS.new_key (fun () -> { cur = None })
let current () = (Domain.DLS.get current_key).cur

(* Every emission site matches its kind's list before building the event,
   so an unobserved kind costs one test and no allocation. *)
let rec publish subs ev =
  match subs with [] -> () | f :: rest -> f ev; publish rest ev

(* ---- step footprints (DPOR dependence stream) ----

   Pseudo-addresses for scheduler interactions, kept far below zero so
   they can never collide with real memory addresses (>= 0) or with the
   small negative trace ids in [neg_ids].  [fp_sched t] stands for the
   scheduler state of thread [t]: every step reads its own, and waking,
   spawning, finishing or joining a thread writes the target's — which is
   exactly the commutation structure the explorer needs (a wake does not
   commute with any step of the woken thread). *)

let fp_sched tid = -0x4000_0000 - tid
let fp_alloc = -0x3000_0001
let fp_spawn = -0x3000_0002

(* Host-state package objects (cooperative queues, monitor holders) get
   their own range so a [Probe.touch id] can never alias a machine word
   with the same integer id. *)
let fp_obj id = -0x2000_0000 - id

let fp m addr ~w =
  match m.on_touch with [] -> () | subs -> publish subs (Ev_touch (addr, w))

let dummy_thread =
  {
    tid = -1;
    status = Finished;
    paused = Gone;
    intr = false;
    wakeup_pending = false;
    epoch = 0;
    joiners = [];
    held = [];
    spin = -1;
  }

let create () =
  let m =
    {
      mem = Array.make 64 0;
      mem_used = 0;
      threads = Array.make 16 dummy_thread;
      nthreads = 0;
      nrunnable = 0;
      nrunnable_intr = 0;
      counts = [||];
      total_instr = 0;
      total_cycles = 0;
      words = Hashtbl.create 16;
      lock_names = Hashtbl.create 16;
      owners = Hashtbl.create 16;
      pending_block = Hashtbl.create 8;
      pending_wake = Hashtbl.create 8;
      timers = Hashtbl.create 8;
      timer_fired = Hashtbl.create 8;
      wake_filter = None;
      delayed = [];
      chaos_hooks = [];
      killed = Hashtbl.create 4;
      chaos_active = false;
      faults = [];
      fault_count = 0;
      neg_ids = 0;
      on_spec = [];
      on_access = [];
      on_touch = [];
      on_prof = [];
      on_stat = [];
      slot = None;
      running = -1;
    }
  in
  m.slot <- Some m;
  m

let subscribe m kind f =
  match kind with
  | K_spec -> m.on_spec <- m.on_spec @ [ f ]
  | K_access -> m.on_access <- m.on_access @ [ f ]
  | K_touch -> m.on_touch <- m.on_touch @ [ f ]
  | K_prof -> m.on_prof <- m.on_prof @ [ f ]
  | K_stat -> m.on_stat <- m.on_stat @ [ f ]

let thread m tid =
  if tid < 0 || tid >= m.nthreads then
    failwith (Printf.sprintf "Machine: unknown thread t%d" tid);
  m.threads.(tid)

(* Every status change goes through here, so the runnable counts that
   the schedulers pick by stay exact. *)
let set_status m t st =
  let runs = function Runnable -> 1 | Blocked | Finished | Failed _ -> 0 in
  let d = runs st - runs t.status in
  m.nrunnable <- m.nrunnable + d;
  if t.intr then m.nrunnable_intr <- m.nrunnable_intr + d;
  t.status <- st

let add_thread m ?(interrupt = false) f =
  let tid = m.nthreads in
  if tid >= Array.length m.threads then begin
    let bigger = Array.make (2 * Array.length m.threads) dummy_thread in
    Array.blit m.threads 0 bigger 0 m.nthreads;
    m.threads <- bigger
  end;
  m.threads.(tid) <-
    {
      tid;
      status = Runnable;
      paused = Fresh f;
      intr = interrupt;
      wakeup_pending = false;
      epoch = 0;
      joiners = [];
      held = [];
      spin = -1;
    };
  m.nthreads <- tid + 1;
  m.nrunnable <- m.nrunnable + 1;
  if interrupt then m.nrunnable_intr <- m.nrunnable_intr + 1;
  tid

let spawn_root ?interrupt m f = add_thread m ?interrupt f

(* Raise an interrupt from inside running thread code: the ambient
   machine is the one executing the calling thread on this domain.  The
   handler runs as a fresh interrupt-context thread — it may post (V) a
   semaphore but any attempt to block fails it, exactly the paper's
   device-interrupt discipline. *)
let spawn_interrupt f =
  match current () with
  | Some m -> add_thread m ~interrupt:true f
  | None ->
    failwith "Machine.spawn_interrupt: no machine is running on this domain"

let is_interrupt m tid = (thread m tid).intr

let is_runnable m tid =
  match (thread m tid).status with
  | Runnable -> true
  | Blocked | Finished | Failed _ -> false

let runnable_count m = m.nrunnable
let runnable_interrupts m = m.nrunnable_intr

(* The pickers' one walk: a top-level loop, not a closure, so a pick
   allocates nothing.  [seen] counts the qualifying threads passed. *)
let rec nth_from threads n ~intr among i tid seen =
  if tid >= n then -1 - seen
  else
    let t = threads.(tid) in
    if
      (match t.status with Runnable -> true | _ -> false)
      && ((not intr) || t.intr)
      && match among with None -> true | Some keep -> keep tid
    then
      if seen = i then tid
      else nth_from threads n ~intr among i (tid + 1) (seen + 1)
    else nth_from threads n ~intr among i (tid + 1) seen

let nth_runnable m ~from ~intr among i =
  nth_from m.threads m.nthreads ~intr among i from 0

let tids_where m keep =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if keep m.threads.(i) then i :: acc else acc)
  in
  go (m.nthreads - 1) []

let runnable m = tids_where m (fun t -> t.status = Runnable)
let blocked m = tids_where m (fun t -> t.status = Blocked)

let live m = m.nrunnable > 0 || blocked m <> []

let alloc m n =
  let base = m.mem_used in
  if base + n > Array.length m.mem then begin
    let bigger = Array.make (max (2 * Array.length m.mem) (base + n)) 0 in
    Array.blit m.mem 0 bigger 0 m.mem_used;
    m.mem <- bigger
  end;
  m.mem_used <- base + n;
  base

let record m tid addr kind =
  match m.on_access with
  | [] -> ()
  | subs ->
    publish subs (Ev_access { tid; addr; kind; locks = m.threads.(tid).held })

(* Statistics for the [K_stat] stream, on [tid]'s track at this instant.
   Callers test [stats_observed] first: building the statistic allocates. *)
let stats_observed m = match m.on_stat with [] -> false | _ :: _ -> true

let stat m tid st =
  publish m.on_stat (Ev_stat { tid; t = m.total_cycles; stat = st })

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if x = y then rest else y :: remove_first x rest

(* ---- causal edges (host-side, zero simulated cost) ---- *)

let profiled m = match m.on_prof with [] -> false | _ :: _ -> true

(* Callers test [profiled] first: building the kind may allocate. *)
let prof_push m tid ~t kind = publish m.on_prof (Ev_prof { tid; t; kind })

(* The blocking thread's pending annotation (set by Probe.will_block),
   resolved to (target, owner at this instant).  Always consumed, even on
   the paths that end up not blocking. *)
let prof_take_block_reason m tid =
  match Hashtbl.find_opt m.pending_block tid with
  | Some (On_obj o) ->
    Hashtbl.remove m.pending_block tid;
    (On_obj o, Hashtbl.find_opt m.owners o)
  | Some w ->
    Hashtbl.remove m.pending_block tid;
    (w, None)
  | None -> (On_unknown, None)

(* The object annotated by Probe.handoff for this wake, consumed. *)
let prof_take_wake_obj m tid =
  let obj = Hashtbl.find_opt m.pending_wake tid in
  Hashtbl.remove m.pending_wake tid;
  obj

let prof_waker m =
  match current () with
  | Some m' when m' == m -> Some m.running
  | _ -> None

(* Cycle-stamped fault log: one entry per injected fault (and per notable
   consequence, e.g. a stale delayed wakeup being discarded).  Host-side
   bookkeeping. *)
let record_fault m desc =
  m.faults <-
    { f_seq = m.fault_count; f_cycle = m.total_cycles; f_desc = desc }
    :: m.faults;
  m.fault_count <- m.fault_count + 1

let wake m tid =
  let t = thread m tid in
  fp m (fp_sched tid) ~w:true;
  if Hashtbl.mem m.killed tid then
    record_fault m
      (Printf.sprintf "wakeup of crash-stopped t%d discarded" tid)
  else
  match t.status with
  | Blocked ->
    set_status m t Runnable;
    t.epoch <- t.epoch + 1;
    if profiled m then
      prof_push m tid ~t:m.total_cycles
        (Pr_wake (prof_waker m, prof_take_wake_obj m tid));
    if stats_observed m then begin
      stat m tid (St_count ("machine.wakes", 1));
      stat m tid (St_end ("blocked", None))
    end
  | Runnable ->
    (* The target has decided to block but its deschedule instruction has
       not executed yet; record the wakeup so the deschedule becomes a
       no-op (Saltzer's wakeup-waiting switch).  The Taos package never
       hits this path (it only readies threads found descheduled under the
       spin-lock); the cooperative backend relies on it. *)
    t.wakeup_pending <- true;
    t.epoch <- t.epoch + 1;
    if profiled m then
      prof_push m tid ~t:m.total_cycles
        (Pr_wake_pending (prof_waker m, prof_take_wake_obj m tid));
    if stats_observed m then
      stat m tid (St_count ("machine.wakeup_waiting_arms", 1))
  | Finished | Failed _ ->
    failwith (Printf.sprintf "Machine.ready: t%d already finished" tid)

let finish m t st =
  set_status m t st;
  t.paused <- Gone;
  fp m (fp_sched t.tid) ~w:true;
  if profiled m then prof_push m t.tid ~t:m.total_cycles Pr_finish;
  (* Record the join edge at the moment it takes effect: each joiner's
     subsequent execution happens after everything [t] did. *)
  List.iter
    (fun j ->
      record m j (-1) (A_join t.tid);
      wake m j)
    t.joiners;
  t.joiners <- []

(* Run the body of [t] until its next effect, capturing the continuation.
   Used both to start a fresh thread and to resume one (via [continue]). *)
let handler m t =
  {
    Effect.Deep.retc = (fun () -> if m.slot != None then finish m t Finished);
    exnc = (fun e -> if m.slot != None then finish m t (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_read _ | E_write _ | E_tas _ | E_clear _ | E_faa _ | E_alloc _
        | E_self | E_spawn _ | E_join _ | E_deschedule_and_clear _
        | E_ready _ | E_tick _ | E_counter _ | E_yield | E_mem_emit _ ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              t.paused <- At_effect (eff, k))
        | _ -> None);
  }

let start m t f = Effect.Deep.match_with f () (handler m t)

(* The handler is deep, so subsequent effects are caught again. *)
let continue = Effect.Deep.continue

let incr_counter m id =
  if id >= Array.length m.counts then begin
    let bigger = Array.make (max 16 (2 * (id + 1))) 0 in
    Array.blit m.counts 0 bigger 0 (Array.length m.counts);
    m.counts <- bigger
  end;
  m.counts.(id) <- m.counts.(id) + 1

(* Account one executed instruction. *)
let charge m cost =
  m.total_instr <- m.total_instr + 1;
  m.total_cycles <- m.total_cycles + cost

(* The memory instructions, shared by the plain effects and [mem_emit]:
   each updates memory, publishes its footprint and access, charges its
   cost and returns its result. *)
let load m t a =
  fp m a ~w:false;
  record m t.tid a A_load;
  charge m Cost.default.read;
  m.mem.(a)

let store m t a v kind =
  m.mem.(a) <- v;
  fp m a ~w:true;
  record m t.tid a kind;
  charge m Cost.default.write

let tas m t a =
  let old = m.mem.(a) in
  m.mem.(a) <- 1;
  fp m a ~w:true;
  (* two constant constructors: [A_tas (old = 0)] would allocate before
     [record] tests for a subscriber *)
  record m t.tid a (if old = 0 then A_tas true else A_tas false);
  charge m Cost.default.tas;
  old

let faa m t a n =
  let old = m.mem.(a) in
  m.mem.(a) <- old + n;
  fp m a ~w:true;
  record m t.tid a A_faa;
  charge m Cost.default.faa;
  old

(* [t] no longer holds lock [id]. *)
let drop_held m t id =
  t.held <- remove_first id t.held;
  (match Hashtbl.find_opt m.owners id with
  | Some owner when owner = t.tid -> Hashtbl.remove m.owners id
  | _ -> ());
  record m t.tid id A_lock_rel

(* The blocked thread's bookkeeping: the profile edge, the block count and
   its "blocked" span. *)
let note_block m t target owner =
  if profiled m then
    prof_push m t.tid ~t:m.total_cycles (Pr_block (target, owner));
  if stats_observed m then begin
    stat m t.tid (St_count ("machine.blocks", 1));
    stat m t.tid (St_begin ("sched", "blocked"))
  end

(* Execute the pending effect of [t]: mutate machine state, compute the
   result, account costs, and continue the thread to its next effect. *)
let execute_effect (type a) m t (eff : a Effect.t)
    (k : (a, unit) Effect.Deep.continuation) =
  match eff with
  | E_read a -> continue k (load m t a)
  | E_write (a, v) ->
    store m t a v A_store;
    continue k ()
  | E_tas a -> continue k (tas m t a <> 0)
  | E_clear a ->
    store m t a 0 A_clear;
    continue k ()
  | E_faa (a, n) -> continue k (faa m t a n)
  | E_alloc n ->
    let base = alloc m n in
    fp m fp_alloc ~w:true;
    continue k base
  | E_self -> continue k t.tid
  | E_spawn f ->
    let tid = add_thread m f in
    fp m fp_spawn ~w:true;
    fp m (fp_sched tid) ~w:true;
    record m t.tid (-1) (A_spawn tid);
    if profiled m then prof_push m t.tid ~t:m.total_cycles (Pr_spawn tid);
    continue k tid
  | E_join target -> (
    let tgt = thread m target in
    fp m (fp_sched target) ~w:false;
    match tgt.status with
    | Finished | Failed _ ->
      record m t.tid (-1) (A_join target);
      continue k ()
    | Runnable | Blocked when t.intr ->
      finish m t
        (Failed (Interrupt_blocked (Printf.sprintf "join on t%d" target)))
    | Runnable | Blocked ->
      tgt.joiners <- t.tid :: tgt.joiners;
      set_status m t Blocked;
      ignore (prof_take_block_reason m t.tid);
      note_block m t (On_thread target) (Some target);
      (* E_join has result type unit, so the continuation is reusable as a
         unit resume. *)
      t.paused <- Resume_unit k)
  | E_deschedule_and_clear a ->
    fp m a ~w:true;
    fp m (fp_sched t.tid) ~w:true;
    if t.intr then begin
      (* An interrupt routine may not block; it dies without releasing the
         spin-lock, which is exactly the disaster the paper warns about. *)
      ignore (prof_take_block_reason m t.tid);
      finish m t
        (Failed (Interrupt_blocked (Printf.sprintf "deschedule@%d" a)));
      charge m Cost.default.write
    end
    else if t.wakeup_pending then begin
      t.wakeup_pending <- false;
      ignore (prof_take_block_reason m t.tid);
      m.mem.(a) <- 0;
      if List.mem a t.held then drop_held m t a;
      record m t.tid a A_clear;
      t.paused <- Resume_unit k;
      charge m Cost.default.write;
      if stats_observed m then
        stat m t.tid (St_count ("machine.wakeup_waiting_saves", 1))
    end
    else begin
      let target, owner = prof_take_block_reason m t.tid in
      m.mem.(a) <- 0;
      if List.mem a t.held then drop_held m t a;
      record m t.tid a A_clear;
      set_status m t Blocked;
      t.paused <- Resume_unit k;
      charge m Cost.default.write;
      note_block m t target owner
    end
  | E_ready target ->
    (match m.wake_filter with
    | None -> wake m target
    | Some f -> (
      (* Only package wakeup interrupts pass this filter; join/finish
         wakes and timer expiries are machine-internal and undroppable. *)
      match f target with
      | Deliver -> wake m target
      | Delay d ->
        let tgt = thread m target in
        m.delayed <- (m.total_cycles + d, tgt.epoch, target) :: m.delayed;
        record_fault m
          (Printf.sprintf "wakeup of t%d delayed by %d cycles" target d)
      | Drop -> record_fault m (Printf.sprintf "wakeup of t%d dropped" target)));
    continue k ()
  | E_tick n ->
    charge m n;
    continue k ()
  | E_counter id ->
    incr_counter m id;
    continue k ()
  | E_yield -> continue k ()
  | E_mem_emit (op, thunk) ->
    let result =
      match op with
      | M_none ->
        charge m Cost.default.write;
        0
      | M_read a -> load m t a
      | M_tas a -> tas m t a
      | M_clear a ->
        store m t a 0 A_clear;
        0
      | M_faa (a, n) -> faa m t a n
    in
    (* The thunk runs inside this step, atomically with the memory
       operation; it may update package bookkeeping and publish through
       [Probe], but must not perform machine effects. *)
    thunk result;
    continue k result
  | _ -> failwith "Machine: unknown effect"

(* Run [t] to its next effect; the step's cost is the cycles it charged. *)
let run_paused m t =
  let t0 = m.total_cycles in
  (match t.paused with
  | Fresh f ->
    t.paused <- Gone;
    start m t f
  | Resume_unit k ->
    t.paused <- Gone;
    continue k ()
  | At_effect (eff, k) ->
    t.paused <- Gone;
    execute_effect m t eff k
  | Gone ->
    failwith (Printf.sprintf "Machine.step: t%d has no continuation" t.tid));
  (* one run segment per step; the profiler merges abutting ones *)
  if profiled m then prof_push m t.tid ~t:t0 (Pr_run m.total_cycles);
  m.total_cycles - t0

let step m tid =
  let t = thread m tid in
  (match t.status with
  | Runnable -> ()
  | Blocked | Finished | Failed _ ->
    failwith (Printf.sprintf "Machine.step: t%d is not runnable" tid));
  let cell = Domain.DLS.get current_key in
  let saved = cell.cur in
  cell.cur <- m.slot;
  m.running <- tid;
  fp m (fp_sched tid) ~w:false;
  match run_paused m t with
  | cost ->
    cell.cur <- saved;
    cost
  | exception e ->
    cell.cur <- saved;
    raise e

(* A continuation dropped unresumed keeps its fiber stack for good, so
   [dispose] raises [Disposed] at each paused thread's pending effect.
   With no ambient machine and a handler that finishes nothing, no event
   is published and no count or status moves.  Effects performed while
   unwinding are discontinued too, at most 64 times per thread. *)
exception Disposed

let dispose m =
  let cell = Domain.DLS.get current_key in
  let saved = cell.cur in
  cell.cur <- None;
  m.slot <- None;
  let rec unwind t n =
    let paused = t.paused in
    t.paused <- Gone;
    match paused with
    | At_effect (_, k) when n > 0 -> Effect.Deep.discontinue k Disposed; unwind t (n - 1)
    | Resume_unit k when n > 0 -> Effect.Deep.discontinue k Disposed; unwind t (n - 1)
    | _ -> ()
  in
  for i = 0 to m.nthreads - 1 do unwind m.threads.(i) 64 done;
  cell.cur <- saved

let counter m name =
  let id = counter_id name in
  if id < Array.length m.counts then m.counts.(id) else 0

let total_instructions m = m.total_instr
let total_cycles m = m.total_cycles

let failures m =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (match m.threads.(i).status with
        | Failed e -> (i, e) :: acc
        | Runnable | Blocked | Finished -> acc)
  in
  go (m.nthreads - 1) []

let spin_word m tid =
  match (thread m tid).spin with -1 -> None | w -> Some w

let word_value m a = m.mem.(a)
let word_owner m a = Hashtbl.find_opt m.owners a

(* ---- timers (driver side) ----

   A timer is armed by the owning thread (Probe.set_timeout) and fired by
   the driver between steps once the machine clock passes its deadline:
   the victim is woken exactly as by [Ops.ready] (honouring the
   wakeup-waiting switch) and its [timer_fired] flag is set; the victim
   itself then dequeues and linearizes the timed outcome under the package
   lock.  When nothing is runnable but timers remain, the driver advances
   the clock to the earliest deadline — discrete-event idle time. *)

let timers_pending m = Hashtbl.length m.timers > 0

let fire_timer m tid =
  Hashtbl.remove m.timers tid;
  match (thread m tid).status with
  | Finished | Failed _ -> ()
  | Runnable | Blocked ->
    if not (Hashtbl.mem m.killed tid) then begin
      Hashtbl.replace m.timer_fired tid ();
      wake m tid
    end

let fire_due_timers m =
  if Hashtbl.length m.timers > 0 then begin
    let due =
      Hashtbl.fold
        (fun tid d acc -> if d <= m.total_cycles then tid :: acc else acc)
        m.timers []
    in
    List.iter (fire_timer m) (List.sort compare due)
  end

(* ---- fault injection (driver side) ---- *)

let set_wake_filter m f = m.wake_filter <- f

let delayed_pending m = m.delayed <> []

let next_due m =
  let earliest d = function None -> Some d | Some d' -> Some (min d d') in
  List.fold_left
    (fun acc (d, _, _) -> earliest d acc)
    (Hashtbl.fold (fun _ d acc -> earliest d acc) m.timers None)
    m.delayed

let flush_delayed m =
  match m.delayed with
  | [] -> ()
  | delayed ->
    let due, rest = List.partition (fun (d, _, _) -> d <= m.total_cycles) delayed in
    m.delayed <- rest;
    List.iter
      (fun (_, epoch, target) ->
        let t = thread m target in
        match t.status with
        | (Runnable | Blocked)
          when t.epoch = epoch && not (Hashtbl.mem m.killed target) ->
          record_fault m (Printf.sprintf "delayed wakeup of t%d delivered" target);
          wake m target
        | _ ->
          (* The episode this wakeup targeted is over (a timer or another
             wake got there first): delivering it now would spuriously
             wake an unrelated block, so it is discarded — which is what a
             real lost interrupt looks like. *)
          record_fault m
            (Printf.sprintf "stale delayed wakeup of t%d discarded" target))
      (List.sort compare due)

let advance_clock m ~to_ = if to_ > m.total_cycles then m.total_cycles <- to_

let kill m tid ~reason =
  let t = thread m tid in
  match t.status with
  | Finished | Failed _ -> ()
  | Runnable | Blocked ->
    Hashtbl.replace m.killed tid ();
    Hashtbl.remove m.timers tid;
    record_fault m (Printf.sprintf "crash-stop of t%d (%s)" tid reason);
    finish m t (Failed Crash_stopped)

let set_chaos_active m b = m.chaos_active <- b
let chaos_hooks m = List.rev m.chaos_hooks
let faults m = List.rev m.faults
let word_kind m a = Option.map fst (Hashtbl.find_opt m.words a)

let word_name m a =
  match Hashtbl.find_opt m.words a with
  | Some (_, name) -> name
  | None -> Printf.sprintf "word@%d" a

let lock_name m id =
  match Hashtbl.find_opt m.lock_names id with
  | Some name -> name
  | None -> (
    match Hashtbl.find_opt m.words id with
    | Some (_, name) -> name
    | None -> Printf.sprintf "lock#%d" id)

let registered_words m =
  Hashtbl.fold (fun a (k, n) acc -> (a, k, n) :: acc) m.words []
  |> List.sort compare

(* Zero-sim-cost observation points for package code (see [current]).
   Every entry point is a no-op outside a simulated thread, so the Threads
   package stays loadable from code not running under a machine. *)
module Probe = struct
  let now () =
    match current () with Some m -> m.total_cycles | None -> 0

  (* Publish a spec action at the current instant without an effect: how
     [mem_emit] thunks emit the action their instruction linearizes.
     Emission sites test [tracing] before they build the action. *)
  let emit ev =
    match current () with
    | Some { on_spec = _ :: _ as subs; _ } -> publish subs (Ev_spec ev)
    | _ -> ()

  let tracing () =
    match current () with Some { on_spec = _ :: _; _ } -> true | _ -> false

  (* The stepping thread's id, without the E_self effect (and so without a
     scheduling point): lets a [mem_emit] thunk name itself in an event. *)
  let self () = match current () with Some m -> Some m.running | None -> None

  (* Machine-local negative id allocator for traced objects that are not
     backed by a memory word (Hoare conditions).  Machine-local rather
     than a process global so the ids — which appear in trace events and
     conformance reports — depend only on the run, not on process history
     or on which domain executed it. *)
  let global_neg_ids = Atomic.make 0

  let fresh_trace_id () =
    match current () with
    | Some m ->
      m.neg_ids <- m.neg_ids - 1;
      m.neg_ids
    | None -> Atomic.fetch_and_add global_neg_ids (-1) - 1

  (* Declare a host-level access to shared package state for the DPOR
     dependence stream.  Package operations whose effect lives in OCaml
     data structures (cooperative ready queues, monitor holder fields)
     rather than machine words call this inside their atomic thunks so
     the explorer sees the conflict; object ids are mapped into their own
     pseudo-address range and can never alias a machine word.  No-op
     unless footprints are observed. *)
  let touch ?(write = true) id =
    match current () with
    | Some m -> fp m (fp_obj id) ~w:write
    | None -> ()

  (* Statistics publish on the stepping thread's track, and only when the
     [K_stat] stream has a subscriber: the test comes before the
     statistic is built. *)
  let counter name n =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_count (name, n))
    | _ -> ()

  let sample name v =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_sample (name, v))
    | _ -> ()

  let gauge_max name v =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_gauge (name, v))
    | _ -> ()

  let span_begin ?(cat = "span") name =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_begin (cat, name))
    | _ -> ()

  let span_end ?sample name =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_end (name, sample))
    | _ -> ()

  let span_add ?(cat = "span") name ~t0 ~t1 =
    match current () with
    | Some ({ on_stat = _ :: _; _ } as m) ->
      stat m m.running (St_span (cat, name, t0, t1))
    | _ -> ()

  (* ---- access-stream probes ----

     Classification and lock-held tracking for the analyzers in
     lib/analysis.  Like every probe these are plain function calls: no
     effect, no cycle, no scheduling point.  The held-lock list is
     maintained even with no access subscriber (it is a handful of conses
     per lock operation): owners feed the causal edges too. *)

  (* Classify a memory word so the analyzers know its protocol role.
     Unregistered words are treated as ordinary data. *)
  let register_word addr kind name =
    match current () with
    | Some m ->
      Hashtbl.replace m.words addr (kind, name);
      if kind = W_lock then Hashtbl.replace m.lock_names addr name
    | None -> ()

  (* Name a package-level lock that is not backed by a TAS word (e.g. the
     cooperative backend's mutexes, Hoare monitors). *)
  let register_lock id name =
    match current () with
    | Some m -> Hashtbl.replace m.lock_names id name
    | None -> ()

  (* [?tid] covers grants made on another thread's behalf (Hoare's signal
     hands the monitor to the resumed waiter inside the signaller's
     instruction). *)
  let lock_acquired ?tid id =
    match current () with
    | Some m ->
      let tid = Option.value tid ~default:m.running in
      let t = thread m tid in
      record m tid id A_lock_acq;
      (* recorded before extending [held]: a_locks = locks held on entry *)
      t.held <- id :: t.held;
      Hashtbl.replace m.owners id tid
    | None -> ()

  let lock_released ?tid id =
    match current () with
    | Some m ->
      drop_held m (thread m (Option.value tid ~default:m.running)) id
    | None -> ()

  (* The spin contract: a spin-lock whose TAS failed declares the word it
     spins on; it clears the declaration once a TAS succeeds.  Host-side
     only, so it costs no cycle and adds no scheduling point. *)
  let spin_on w =
    match current () with
    | Some m -> m.threads.(m.running).spin <- w
    | None -> ()

  let spin_end () =
    match current () with
    | Some m -> m.threads.(m.running).spin <- -1
    | None -> ()

  (* A contended acquisition about to block: gives the lock-order graph
     the attempted edge even if the acquisition never succeeds (the
     classic deadlock leaves both attempts pending forever). *)
  let lock_attempted id =
    match current () with
    | Some m -> record m m.running id A_lock_att
    | None -> ()

  (* ---- causal-profiling probes (Obs.Profile) ----

     [will_block obj] annotates the caller's imminent deschedule with the
     synchronization object it is waiting on; the machine resolves the
     object's owner at the instant the block commits (and discards the
     annotation if the wakeup-waiting switch turns the deschedule into a
     no-op).  [handoff ~obj target] annotates the next wake of [target]
     with the object whose ownership is being handed over — called just
     before the [Ops.ready] in Release / Signal / Broadcast / V and the
     alert cancellation paths. *)

  (* ---- timer probes (timed waits) ----

     Arming/disarming a timer is host-side bookkeeping (no effect, no
     cycle): the deadline only becomes visible when the driver fires it
     between steps.  [take_timeout_fired] consumes the delivery flag so
     the timed-out thread can tell expiry from a Signal/V wake. *)

  let set_timeout ~cycles =
    match current () with
    | Some m -> Hashtbl.replace m.timers m.running (m.total_cycles + cycles)
    | None -> ()

  let cancel_timeout () =
    match current () with
    | Some m ->
      let tid = m.running in
      Hashtbl.remove m.timers tid;
      Hashtbl.remove m.timer_fired tid
    | None -> ()

  let take_timeout_fired () =
    match current () with
    | Some m ->
      let tid = m.running in
      if Hashtbl.mem m.timer_fired tid then begin
        Hashtbl.remove m.timer_fired tid;
        true
      end
      else false
    | None -> false

  (* ---- chaos probes (lib/fault) ---- *)

  (* True only while a fault-injection driver is running this machine:
     gates degradation heuristics (spin-lock backoff) so uninjected runs
     stay schedule-identical. *)
  let chaos_active () =
    match current () with Some m -> m.chaos_active | None -> false

  (* Package code registers named injection entry points at object
     creation (a condition's spurious wakeup, a spin-lock's contention
     burst, the package's alert).  The chaos engine runs them from
     injector threads it spawns mid-run. *)
  let register_chaos name f =
    match current () with
    | Some m -> m.chaos_hooks <- (name, f) :: m.chaos_hooks
    | None -> ()

  (* Record a package-level injected fault in the machine's fault log. *)
  let inject_fault desc =
    match current () with Some m -> record_fault m desc | None -> ()

  let will_block obj =
    match current () with
    | Some m ->
      let tid = m.running in
      if profiled m then Hashtbl.replace m.pending_block tid (On_obj obj)
    | None -> ()

  let handoff ~obj target =
    match current () with
    | Some m ->
      if profiled m then Hashtbl.replace m.pending_wake target obj
    | None -> ()
end
