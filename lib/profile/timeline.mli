(** Per-thread state timelines reconstructed from the machine's causal
    profile fold ({!Profile.record}).

    Each thread's lifetime is tiled by four states: [Running] (consuming
    cycles), [Spin] (running inside a spin-lock acquire), [Sched]
    (runnable but not dispatched — scheduler-induced wait) and [Blocked]
    (parked by the Nub or scheduler — lock-induced wait).  Blocked
    intervals additionally carry the causal annotations the package
    probes recorded: the object waited on, its owner at block time, and
    the waker that ended the wait. *)

type kind = Running | Spin | Sched | Blocked

type seg = {
  tid : Threads_util.Tid.t;
  t0 : int;
  t1 : int;  (** half-open [t0, t1) *)
  kind : kind;
  obj : int option;  (** [Blocked]: the object waited on, when annotated *)
}

type blocked = {
  b_tid : Threads_util.Tid.t;
  b_t0 : int;
  b_t1 : int;  (** = makespan when never woken *)
  b_target : Firefly.Machine.wait_target;
  b_owner : Threads_util.Tid.t option;  (** owner at block time *)
  b_waker : Threads_util.Tid.t option;  (** [None] = never woken *)
  b_obj_handed : int option;  (** object named by the waker's hand-off *)
}

type thread_line = {
  l_tid : Threads_util.Tid.t;
  l_start : int;
  l_end : int;
  l_segs : seg list;  (** chronological, tiling [l_start, l_end) *)
}

type t = {
  makespan : int;
  lines : thread_line list;  (** sorted by tid *)
  blocks : blocked list;  (** all blocked intervals, chronological *)
}

val kind_name : kind -> string

(** [build ~makespan ~spin_spans events] — [spin_spans] are
    [(tid, t0, t1)] wall-clock spin-lock acquire windows from the obs
    instrument (cat ["spin"]). *)
val build :
  makespan:int ->
  spin_spans:(Threads_util.Tid.t * int * int) list ->
  Firefly.Machine.prof_event list ->
  t

(** [(running, spin, sched, blocked)] cycles of [segs] ∩ [t0, t1). *)
val decompose : seg list -> t0:int -> t1:int -> int * int * int * int

val line : t -> Threads_util.Tid.t -> thread_line option

(** Whole-run [(running, spin, sched, blocked)] totals over all threads. *)
val totals : t -> int * int * int * int
