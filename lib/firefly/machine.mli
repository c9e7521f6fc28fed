(** The simulated shared-memory multiprocessor.

    Thread code is ordinary OCaml performing the effects in {!module:Ops};
    the machine holds one one-shot continuation per thread and executes
    exactly one effect ("instruction") per {!step}, so drivers control the
    interleaving at memory-access granularity.  Computation between effects
    is invisible to other threads, which matches a real machine: only
    loads, stores and interlocked operations are ordering points.

    The machine itself is single-threaded OCaml; concurrency is simulated,
    which is what makes runs deterministic and schedules replayable. *)

type t

type status =
  | Runnable
  | Blocked  (** descheduled; waiting for {!Ops.ready} *)
  | Finished
  | Failed of exn  (** the thread body escaped with an exception *)

(** An interrupt routine attempted to block (join or deschedule).  The
    argument names the blocking site.  Interrupt routines cannot protect
    shared data with a mutex — the paper's stated reason semaphores exist
    — so this is a programming (or fault-plan) error with its own
    diagnostic rather than a bare [Failure]. *)
exception Interrupt_blocked of string

(** Status exception of a thread removed by {!kill} (injected processor
    crash-stop). *)
exception Crash_stopped

(** {1 Fault injection (lib/fault)}

    The chaos engine installs a {!wake_verdict} filter over every
    package-level wakeup interrupt ({!Ops.ready}), may {!kill} threads
    mid-run, and runs package-registered injection hooks from injector
    threads.  Every injected fault lands in the cycle-stamped fault log
    ({!faults}) so post-mortem reports can attribute blame.  With no
    filter installed and no timers armed, none of this code runs: an
    uninjected machine is cycle- and schedule-identical to one built
    before this layer existed. *)

(** Filter verdict for one intercepted wakeup interrupt. *)
type wake_verdict =
  | Deliver  (** pass through unchanged *)
  | Delay of int  (** deliver [n] cycles later (widens the race window) *)
  | Drop  (** lose it — the classic lost-wakeup incident *)

(** One injected fault (or notable consequence), cycle-stamped. *)
type fault = { f_seq : int; f_cycle : int; f_desc : string }

(** {1 The recording stream}

    A run is observed through one stream of {!event}s.  A consumer
    {!subscribe}s to one {!kind} and folds it itself: the spec-trace
    collector ({!Record.trace}), the access log of [lib/analysis], the
    per-step footprints of {!Explore.explore_dpor_parallel}, and the
    causal-profile fold and the statistics registry of [lib/obs]
    ([Obs.Profile.record], [Obs.Instrument.record]).  The machine keeps
    none of it, and links no observability code.  Each emission
    site first tests whether its kind has a subscriber, so a kind nobody
    observes costs that test and allocates nothing.  Publishing charges
    no cycles, adds no scheduling points and draws no randomness, so an
    observed run is cycle- and schedule-identical to an unobserved one.
    The fault log and the interned counters ({!Ops.incr_counter}) are
    the only always-on aggregates. *)

(** Protocol role of a registered memory word (see
    {!Probe.register_word}).  The analyzers exempt synchronization words
    from race checking and derive happens-before edges from their
    operations; unregistered words are ordinary data. *)
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
  | A_spawn of Threads_util.Tid.t
  | A_join of Threads_util.Tid.t

(** One access as the access log keeps it: an {!Ev_access} numbered in
    stream order. *)
type access = {
  a_seq : int;
  a_tid : Threads_util.Tid.t;
  a_addr : int;  (** word address or lock id; [-1] for spawn/join *)
  a_kind : access_kind;
  a_locks : int list;  (** lock ids held (for [A_lock_acq]: before acquiring) *)
}

(** What a blocked thread is waiting for. *)
type wait_target =
  | On_obj of int  (** mutex / condition / semaphore id *)
  | On_thread of Threads_util.Tid.t  (** join *)
  | On_unknown  (** deschedule with no package annotation *)

type prof_kind =
  | Pr_run of int
      (** run segment: the thread consumed cycles [pr_t, arg] *)
  | Pr_spawn of Threads_util.Tid.t  (** [pr_tid] spawned the child *)
  | Pr_block of wait_target * Threads_util.Tid.t option
      (** blocked on [target]; owner of the object at that instant *)
  | Pr_wake of Threads_util.Tid.t option * int option
      (** [pr_tid] was woken by the waker, handing over the object *)
  | Pr_wake_pending of Threads_util.Tid.t option * int option
      (** wakeup-waiting arm: the target was still runnable *)
  | Pr_finish

(** One causal edge as the profile fold keeps it: an {!Ev_prof} numbered
    in stream order, with abutting run segments of a thread merged. *)
type prof_event = {
  pr_seq : int;  (** global order, dense from 0 *)
  pr_t : int;  (** cycle timestamp (segment start for [Pr_run]) *)
  pr_tid : Threads_util.Tid.t;  (** subject thread (the woken one for wakes) *)
  pr_kind : prof_kind;
}

(** One statistic, as the {!Probe} statistics and the machine's own
    block and wake bookkeeping publish it ({!Ev_stat}). *)
type stat =
  | St_count of string * int  (** add to a counter *)
  | St_sample of string * int  (** one histogram sample (a cycle count) *)
  | St_gauge of string * int  (** raise a high-water gauge *)
  | St_begin of string * string  (** open span [(category, name)] *)
  | St_end of string * string option
      (** close span [name]; its duration goes to the histogram, if named *)
  | St_span of string * string * int * int
      (** an already-delimited span: category, name, start, end *)

type event =
  | Ev_spec of Spec_trace.event  (** a spec action at its linearization point *)
  | Ev_access of {
      tid : Threads_util.Tid.t;
      addr : int;  (** word address or lock id; [-1] for spawn/join *)
      kind : access_kind;
      locks : int list;  (** lock ids [tid] held at that instant *)
    }  (** a shared-memory instruction or a {!Probe} lock event *)
  | Ev_touch of int * bool
      (** [(address, is_write)] touched by the step in progress: first its
          own scheduler slot (read), then memory words, pseudo-addresses
          for scheduler interactions (waking, spawning, finishing or
          joining a thread writes the target's slot) and {!Probe.touch}
          declarations.  Steps whose footprints share no address that
          either of them writes commute. *)
  | Ev_prof of { tid : Threads_util.Tid.t; t : int; kind : prof_kind }
      (** a causal edge, with [tid] and [t] as in {!prof_event}: one run
          segment per step (possibly empty), block edges annotated by
          {!Probe.will_block}, wake edges annotated by {!Probe.handoff},
          spawn/finish points and wakeup-waiting arms *)
  | Ev_stat of { tid : Threads_util.Tid.t; t : int; stat : stat }
      (** a statistic on thread [tid]'s track at cycle [t]: the {!Probe}
          statistics of the stepping thread, and the machine's
          ["machine.blocks"], ["machine.wakes"],
          ["machine.wakeup_waiting_arms"]/["_saves"] counters and
          per-thread ["blocked"] spans *)

(** One kind per {!event} constructor. *)
type kind = K_spec | K_access | K_touch | K_prof | K_stat

(** Memory operation for {!Ops.mem_emit}.  [M_none] is a plain store-class
    instruction with no memory visible effect (used when the action commits
    purely in package bookkeeping, e.g. Alert's pending-set insert).
    Results: [M_read] the value, [M_tas] the {e old} word (0 = acquired),
    [M_faa] the old value, others 0. *)
type mem_op =
  | M_none
  | M_read of int
  | M_tas of int
  | M_clear of int
  | M_faa of int * int

(** {1 Effects performed by thread code} *)

(** Interned counter names: dense ids, the same on every machine and
    domain.  [counter_id name] interns [name]; intern once, at set-up. *)
type counter

val counter_id : string -> counter

module Ops : sig
  val read : int -> int
  val write : int -> int -> unit

  (** [tas a] atomically reads word [a] and sets it to 1; returns [true]
      iff it was already 1 (i.e. the lock was held). *)
  val tas : int -> bool

  (** [clear a] sets word [a] to 0. *)
  val clear : int -> unit

  (** [faa a n] fetch-and-add: returns the old value. *)
  val faa : int -> int -> int

  (** [alloc n] allocates [n] fresh zeroed words, returning the base
      address. *)
  val alloc : int -> int

  val self : unit -> Threads_util.Tid.t

  (** [spawn f] creates a new runnable thread. *)
  val spawn : (unit -> unit) -> Threads_util.Tid.t

  (** [join t] blocks until thread [t] finishes (normally or by failure). *)
  val join : Threads_util.Tid.t -> unit

  (** [deschedule_and_clear a] atomically blocks the calling thread and
      clears word [a] — the kernel "sleep releasing the spin-lock"
      primitive the Nub's deschedule path relies on. *)
  val deschedule_and_clear : int -> unit

  (** [ready t] moves a blocked thread to the runnable set.  If [t] is
      runnable but about to deschedule, the wakeup is remembered and the
      deschedule becomes a no-op (Saltzer's wakeup-waiting switch); readying
      a finished thread is a simulation error ([Failure]). *)
  val ready : Threads_util.Tid.t -> unit

  (** [tick n] consumes [n] cycles of pure computation (one instruction). *)
  val tick : int -> unit

  (** [incr_counter c] bumps an interned statistic (zero cost, but one
      scheduling step like every effect). *)
  val incr_counter : counter -> unit

  (** [yield ()] is a zero-cost scheduling point (used by the cooperative
      uniprocessor backend). *)
  val yield : unit -> unit

  (** [mem_emit op thunk] performs memory operation [op] and, atomically in
      the same instruction, calls [thunk result], which publishes the
      action it linearizes with {!Probe.emit}.  This is how the Threads
      package linearizes its visible atomic actions: the event cannot be
      separated from the memory operation that commits the action.  The
      thunk may update package-level bookkeeping but must not perform
      machine effects. *)
  val mem_emit : mem_op -> (int -> unit) -> int
end

(** {1 Observation probes (thread code, zero simulated cost)}

    Unlike {!Ops}, nothing here performs an effect: a probe call is not a
    scheduling point, charges no cycles, consumes no randomness, and is
    therefore invisible to the simulation — an instrumented run is
    cycle-identical to an uninstrumented one.  Probes publish on the
    stepping machine's recording stream, and may be called from
    anywhere in thread code, including
    inside {!Ops.mem_emit} thunks (where [now] already includes the
    charged cost of the enclosing instruction).  Outside a simulated
    thread every probe is a no-op. *)

module Probe : sig
  (** Current simulated time: the machine's running total-cycle clock. *)
  val now : unit -> int

  (** [emit ev] publishes spec action [ev] ({!Ev_spec}) at the current
      instant without performing an effect: from an {!Ops.mem_emit} thunk,
      atomically with its instruction.  One instruction may linearize more
      than one action (a monitor handoff: Release and the successor's
      Acquire commit together). *)
  val emit : Spec_trace.event -> unit

  (** Whether the stepping machine's spec stream has a subscriber.  Every
      emission site tests it before building its event (and any closure
      that only builds it), so an unobserved run builds none. *)
  val tracing : unit -> bool

  (** The thread currently inside {!step} — i.e. the caller's own id when
      invoked from package code or a [mem_emit] thunk; [None] outside a
      machine.  Unlike {!Ops.self} this performs no effect, so it adds no
      scheduling point. *)
  val self : unit -> Threads_util.Tid.t option

  (** Fresh negative trace id for an object not backed by a memory word
      (Hoare conditions).  Allocated from the stepping machine, so the ids
      appearing in traces and reports depend only on the run — not on
      process history or the executing domain. *)
  val fresh_trace_id : unit -> int

  (** [touch ?write id] declares a host-level access to shared package
      state (cooperative queues, monitor holder fields) for the DPOR
      dependence stream.  Object ids live in their own pseudo-address
      range and never alias machine words.  Publishes an {!Ev_touch};
      no-op unless footprints are observed. *)
  val touch : ?write:bool -> int -> unit

  (** {2 Statistics}

      Each publishes one {!Ev_stat} on the stepping thread's track, and
      only when {!K_stat} has a subscriber; [Obs.Instrument.record]
      folds them into a registry. *)

  (** [counter name n] adds [n]; [counter name 0] materializes the counter
      at 0 so it shows in reports. *)
  val counter : string -> int -> unit

  (** [sample name v] records a histogram sample (a cycle count). *)
  val sample : string -> int -> unit

  (** [gauge_max name v] raises a high-water gauge. *)
  val gauge_max : string -> int -> unit

  (** Spans are keyed by (current thread, name), as in
      [Obs.Instrument.span_begin].  [cat] defaults to ["span"]. *)
  val span_begin : ?cat:string -> string -> unit

  (** [span_end ?sample name] closes the span; with [sample], the fold
      also records its duration in that histogram.  A span with no
      matching begin is dropped. *)
  val span_end : ?sample:string -> string -> unit

  (** Record an already-delimited span on the current thread's track. *)
  val span_add : ?cat:string -> string -> t0:int -> t1:int -> unit

  (** {2 Access-stream probes (lib/analysis)} *)

  (** [register_word addr kind name] classifies memory word [addr] for the
      analyzers.  A [W_lock] registration also names [addr] as a lock id
      (TAS-backed locks use their word address as their id). *)
  val register_word : int -> word_kind -> string -> unit

  (** [register_lock id name] names a package-level lock that is not
      backed by a TAS word (cooperative mutexes, Hoare monitors). *)
  val register_lock : int -> string -> unit

  (** [lock_acquired ?tid id] marks lock [id] as held by [tid] (default:
      the stepping thread) and publishes an [A_lock_acq] access.  [?tid]
      covers grants made on another thread's behalf, e.g. Hoare's signal
      handing the monitor to the resumed waiter.  Held-lock tracking works
      whether or not accesses are observed. *)
  val lock_acquired : ?tid:Threads_util.Tid.t -> int -> unit

  val lock_released : ?tid:Threads_util.Tid.t -> int -> unit

  (** [spin_on w] declares that the stepping thread spins on word [w]: its
      TAS on [w] failed, and until a TAS succeeds it only retries that TAS
      with unchanged local state.  [spin_end ()] clears the declaration.
      Host-side only: no cycle, no scheduling point.  The declaration is
      a promise {!Interleave.certificate} relies on, so a loop whose
      state changes between retries (a growing backoff) must not make
      it. *)
  val spin_on : int -> unit

  val spin_end : unit -> unit

  (** [lock_attempted id] publishes a contended acquisition about to block,
      so the lock-order graph sees the attempted edge even when the
      acquisition never succeeds (the classic deadlock). *)
  val lock_attempted : int -> unit

  (** {2 Timer probes (timed waits)}

      Host-side bookkeeping: arming charges no cycle and adds no
      scheduling point.  The deadline takes effect when the driver fires
      due timers between steps ({!fire_due_timers}); the victim is woken
      like any other wake and consumes {!take_timeout_fired} to tell
      expiry from a Signal/V wake. *)

  (** Arm (or re-arm) the calling thread's timer [cycles] from now. *)
  val set_timeout : cycles:int -> unit

  (** Disarm the calling thread's timer and clear any un-consumed fired
      flag. *)
  val cancel_timeout : unit -> unit

  (** Consume and return the calling thread's timer-fired flag. *)
  val take_timeout_fired : unit -> bool

  (** {2 Chaos probes (lib/fault)} *)

  (** True only while a fault-injection driver runs this machine: gates
      degradation heuristics (e.g. spin-lock backoff) so uninjected runs
      stay schedule-identical. *)
  val chaos_active : unit -> bool

  (** [register_chaos name f] registers a named package-level injection
      entry point (spurious wakeup, contention burst, alert); the chaos
      engine runs [f arg] from injector threads it spawns mid-run. *)
  val register_chaos : string -> (int -> unit) -> unit

  (** Record a package-level injected fault in the machine's fault log. *)
  val inject_fault : string -> unit

  (** {2 Causal-profiling probes ([Obs.Profile])} *)

  (** [will_block obj] annotates the caller's imminent deschedule with the
      synchronization object it waits on; the machine resolves the
      object's owner when the block commits.  No-op unless causal edges
      are observed ({!K_prof}). *)
  val will_block : int -> unit

  (** [handoff ~obj target] annotates the next wake of [target] with the
      object whose ownership is handed over — call just before the
      [Ops.ready] in Release / Signal / Broadcast / V and in alert
      cancellations.  No-op unless causal edges are observed. *)
  val handoff : obj:int -> Threads_util.Tid.t -> unit
end

(** {1 Construction and stepping (driver side)} *)

(** [create ()] — an empty machine, charging {!Cost.default}. *)
val create : unit -> t

(** [spawn_root m f] adds a thread before (or during) a run; same semantics
    as {!Ops.spawn} but callable from outside.  A thread spawned with
    [~interrupt:true] models an interrupt routine: any attempt to block
    (deschedule or join) fails it with [Failure] — interrupt routines
    cannot protect shared data with a mutex, the paper's stated reason
    semaphores exist. *)
val spawn_root : ?interrupt:bool -> t -> (unit -> unit) -> Threads_util.Tid.t

(** [spawn_interrupt f] — raise an interrupt from {e inside} running
    thread code: spawns [f] as an interrupt-context thread
    ([spawn_root ~interrupt:true]) on the machine currently executing the
    calling thread on this domain.  The handler may post a semaphore (V)
    but fails if it tries to block.  Raises [Failure] when no machine is
    running on the calling domain (e.g. a hardware backend). *)
val spawn_interrupt : (unit -> unit) -> Threads_util.Tid.t

val is_interrupt : t -> Threads_util.Tid.t -> bool

(** [runnable m] — runnable thread ids, ascending. *)
val runnable : t -> Threads_util.Tid.t list

(** The runnable set without building it: the machine keeps its size,
    and the size of its interrupt-context part, as threads change
    status.  Tids are dense from 0, in spawn order. *)

val is_runnable : t -> Threads_util.Tid.t -> bool
val runnable_count : t -> int
val runnable_interrupts : t -> int

(** [nth_runnable m ~from ~intr among i] — what [List.nth_opt] finds at
    [i] in {!runnable} filtered to tids [>= from], in interrupt context
    if [intr], that [among] accepts ([None]: all), without allocating;
    past the end, [-1 - k] for the [k <= i] that qualify (-1 if none,
    the count if [i = max_int]).  Every pick walks here; [from >= 0]. *)
val nth_runnable :
  t -> from:Threads_util.Tid.t -> intr:bool ->
  (Threads_util.Tid.t -> bool) option -> int -> Threads_util.Tid.t

(** [blocked m] — blocked thread ids, ascending: a deadlock's witnesses. *)
val blocked : t -> Threads_util.Tid.t list

(** [live m] is true while some thread is runnable or blocked. *)
val live : t -> bool

(** [step m t] executes thread [t]'s pending instruction and runs it up to
    its next effect.  Returns the cycle cost of the executed instruction.
    Raises [Failure] if [t] is not runnable. *)
val step : t -> Threads_util.Tid.t -> int

(** [dispose m] unwinds every paused thread of [m], which will not be
    stepped again, to free its stack (a dropped continuation never frees
    it).  It publishes nothing and moves no count or status. *)
val dispose : t -> unit

(** {1 Observation} *)

(** [subscribe m kind f] calls [f] on every event of [kind] that [m]
    publishes from now on, in stream order, after any earlier subscriber
    of that kind.  Subscribe right after {!create}, before any thread
    runs, to see the whole run. *)
val subscribe : t -> kind -> (event -> unit) -> unit

(** [counter m name] — the count of [name] on [m], 0 if never bumped. *)
val counter : t -> string -> int

val total_instructions : t -> int
val total_cycles : t -> int

(** [failures m] — threads that escaped with exceptions. *)
val failures : t -> (Threads_util.Tid.t * exn) list

(** {2 Spin declarations (read-only)}

    What a livelock certificate reads: the word a thread declared it spins
    on ({!Probe.spin_on}), the word's current value and the lock's owner
    as kept by {!Probe.lock_acquired} / {!Probe.lock_released}. *)

(** [spin_word m tid] — the word [tid] is in a declared spin on, if any. *)
val spin_word : t -> Threads_util.Tid.t -> int option

(** [word_value m a] — the value of memory word [a], read host-side. *)
val word_value : t -> int -> int

(** [word_owner m id] — the current holder of lock [id], if known. *)
val word_owner : t -> int -> Threads_util.Tid.t option

(** {1 Timers (driver side)}

    {!Interleave.drive} calls {!fire_due_timers} between steps; when
    nothing is runnable but timers remain, it jumps the clock to
    {!next_due} with {!advance_clock} (discrete-event idle time).
    With no timers armed these are no-ops, so timer-free runs are
    unchanged. *)

val timers_pending : t -> bool

(** Fire every timer whose deadline has passed: wake the victim (honouring
    the wakeup-waiting switch) and set its fired flag. *)
val fire_due_timers : t -> unit

(** {1 Fault injection (driver side)} *)

(** Install (or remove) the wakeup-interrupt filter. *)
val set_wake_filter : t -> (Threads_util.Tid.t -> wake_verdict) option -> unit

(** Are any delayed wakeups still undelivered? *)
val delayed_pending : t -> bool

(** Earliest due cycle among armed timers and undelivered delayed
    wakeups. *)
val next_due : t -> int option

(** Deliver every delayed wakeup whose due-cycle has passed.  A wakeup
    whose target has moved on (its wake episode ended via a timer or
    another wake) is stale and is discarded — recorded, never delivered,
    so it cannot spuriously wake an unrelated block. *)
val flush_delayed : t -> unit

(** Jump the clock forward (for delivering timers and delayed wakeups at
    idle). *)
val advance_clock : t -> to_:int -> unit

(** [kill m t ~reason] crash-stops thread [t]: it fails with
    {!Crash_stopped} {e without unwinding} — finalizers do not run, held
    locks stay held — exactly a processor dying mid-critical-section.
    Joiners are woken; subsequent wakeups of [t] are discarded (and
    recorded) rather than being simulation errors. *)
val kill : t -> Threads_util.Tid.t -> reason:string -> unit

(** Gate for {!Probe.chaos_active}; set by fault-injection drivers. *)
val set_chaos_active : t -> bool -> unit

(** Driver-side fault record (the injector-thread equivalent is
    {!Probe.inject_fault}): appends to {!faults}. *)
val record_fault : t -> string -> unit

(** Package-registered injection entry points, in registration order. *)
val chaos_hooks : t -> (string * (int -> unit)) list

(** The fault log, in injection order. *)
val faults : t -> fault list

(** Classification of word [a], if registered ([None] = ordinary data). *)
val word_kind : t -> int -> word_kind option

(** Registered name of word [a], or ["word@a"]. *)
val word_name : t -> int -> string

(** Name of lock [id]: from {!Probe.register_lock}, else the word registry,
    else ["lock#id"]. *)
val lock_name : t -> int -> string

(** All registered words [(addr, kind, name)], sorted by address. *)
val registered_words : t -> (int * word_kind * string) list
