(** Generated client programs.

    A program is a random object graph — mutexes, flag conditions and
    token conditions (each with its own protecting mutex), bracketed
    semaphores, interrupt semaphores — plus one straight-line op list per
    worker thread and one for the root thread.  Lifting into
    {!Threads_backend.Workload.t} interprets the ops against any
    backend's [SYNC] implementation, so one generated program runs
    unmodified on every registered backend and its trace is checked
    against the spec exactly like the hand-written workloads. *)

type op =
  | Lock of int list * int
      (** acquire the mutex subset in list order (sorted under the safe
          policy = global lock order), spin [work] yields innermost,
          release in reverse *)
  | Sem of int * int  (** bracketed [P s; work; V s] *)
  | Timed_sem of int * int
      (** [TimedP s ~timeout]; on success V, on expiry skip *)
  | Await of int  (** flag condition: Mesa loop until the flag is set *)
  | Timed_await of int  (** Mesa loop via TimedWait; expiries re-loop *)
  | Alert_await of int
      (** Mesa loop via AlertWait; an alert exits the loop *)
  | Set_flag of int  (** set the flag under its mutex, then Broadcast *)
  | Produce of int  (** token condition: increment counter, Signal *)
  | Consume of int  (** token condition: Mesa-wait for a token, take it *)
  | Alert_peer of int  (** alert worker [i] (no-op if out of range) *)
  | Poll_alert  (** TestAlert on self *)
  | Interrupt_v of int
      (** raise an interrupt whose handler Vs interrupt semaphore [i],
          then P it — the paper's device-wakeup handshake *)
  | Yield
  | Work of int  (** [work] yields *)

type t = {
  mutexes : int;  (** plain mutexes, for [Lock] *)
  sems : int;  (** bracketed semaphores, all initially available *)
  flags : int;  (** flag conditions (own mutex + bool each) *)
  tokens : int;  (** token conditions (own mutex + counter each) *)
  irqs : int;  (** interrupt semaphores, initially unavailable *)
  threads : op list list;  (** worker bodies, forked by the root *)
  main : op list;  (** run by the root between fork and join *)
}

(** Total op count across workers and root — the shrinker's primary
    size measure (the acceptance bar for minimal counterexamples). *)
val size : t -> int

(** Total parameter magnitude (work ticks, lock-set widths, timeouts) —
    the shrinker's secondary measure, so in-place simplifications also
    terminate. *)
val weight : t -> int

(** Drop unreferenced objects and renumber the remaining ones densely
    (first-use order); clamp worker references that point past the last
    worker.  Canonical form makes shrunk programs comparable and keeps
    replay files self-consistent. *)
val canonicalize : t -> t

(** One-line op encoding, e.g. [lock 0,2 3], [await 0], [irqv 1]; used
    by both the renderer and replay files.  [decode_op (encode_op o) =
    Some o]. *)
val encode_op : op -> string

val decode_op : string -> op option

(** Multi-line human rendering (deterministic). *)
val render : Format.formatter -> t -> unit

(** [to_workload ~name p] — the program as a backend-generic workload;
    [needs] lists the backend features its ops require, the observable
    is a constant (generated programs assert nothing about results —
    divergence shows up as deadlock or spec violations). *)
val to_workload : name:string -> t -> Threads_backend.Workload.t
