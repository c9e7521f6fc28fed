(** Client-program scenarios for the specification-level model checker.

    A scenario declares synchronization objects, one straight-line program
    per thread (a list of procedure calls on those objects), and the
    properties its exploration checks: classified safety invariants,
    whether deadlock is acceptable, and whether a wakeup must be
    deliverable.  {!Checker} explores {e every} interleaving of the atomic
    actions the specification allows — including all non-deterministic
    outcomes (e.g. all removal choices of Signal, both RETURNS and RAISES
    when AlertP's guards overlap). *)

type arg =
  | Aobj of string  (** a declared object, by name *)
  | Athread of int  (** the thread running program [i] (0-based) *)

type step = { proc : string; args : arg list }

val call : string -> arg list -> step

(** Where a thread is in its program.  [Mid (s, k)] = inside the
    composition of step [s], having executed [k] of its actions;
    [Idle s] = before step [s]; [Done] = program finished. *)
type phase = Idle of int | Mid of int * int | Done

(** An explored node, as invariants and {!Checker} policies see it. *)
type view = {
  state : Spec_core.State.t;
  phases : phase array;  (** indexed by program/thread *)
  objects : (string * Spec_core.Spec_obj.t) list;
      (** the declared objects, with positional ids 1, 2, … *)
}

(** [value view name] — current abstract value of a declared object. *)
val value : view -> string -> Spec_core.Value.t

(** [tid_of i] — the spec thread id of program [i]. *)
val tid_of : int -> Threads_util.Tid.t

(** What a broken invariant is about.  The static verifier reports a
    violation under its {!class_name}. *)
type invariant_class = Exclusion | Stale_waiter

(** ["exclusion"] or ["stale-waiter"]. *)
val class_name : invariant_class -> string

(** A safety property checked at every explored node: [Some message]
    when it is broken. *)
type invariant = invariant_class * (view -> string option)

type t = {
  name : string;
  objects : (string * Spec_core.Sort.t) list;
  programs : step list array;
  invariants : invariant list;
  allow_deadlock : bool;
      (** a node where every unfinished thread is blocked is no error *)
  assert_delivery : bool;
      (** some interleaving must remove a parked waiter from a condition;
          the static verifier reports the wakeup-waiting window if none
          does *)
  initials : (string * Spec_core.Value.t) list;
      (** per-object initial values overriding the sort's default *)
  interrupts : int list;
      (** programs that model interrupt handlers (static analysis flags
          potentially-blocking calls inside them) *)
}

val make :
  name:string ->
  objects:(string * Spec_core.Sort.t) list ->
  programs:step list list ->
  ?invariants:invariant list ->
  ?allow_deadlock:bool ->
  ?assert_delivery:bool ->
  ?initials:(string * Spec_core.Value.t) list ->
  ?interrupts:int list ->
  unit ->
  t

(** {1 Ready-made invariants} *)

(** [no_stale_waiters ~c ~waits] — every member of condition [c] must be a
    thread currently inside one of the [waits] regions: [(program, step)]
    pairs naming Wait/AlertWait calls.  This is the invariant Nelson's bug
    breaks: a thread that raised Alerted stays in [c]. *)
val no_stale_waiters : c:string -> waits:(int * int) list -> invariant

(** [mutual_exclusion ~regions] — at most one of the listed critical
    regions may be occupied at a time.  A region [(program, first_step,
    last_step, wait_steps)] is occupied when the thread's phase lies
    strictly after completing [first_step] (its Acquire) and not past
    [last_step] (its Release) — except while parked inside one of the
    [wait_steps] (a Wait/AlertWait whose Enqueue released the mutex).
    Breaks under the missing-mutex-guard variant of AlertWait. *)
val mutual_exclusion : regions:(int * int * int * int list) list -> invariant
