(** Backend-neutral execution traces of specification-level atomic actions.

    Every Threads backend — the Firefly simulator, the cooperative
    uniprocessor version, the Hoare/Naive baselines and the real-parallelism
    OCaml 5 implementation — emits one event at each linearization point
    (the instant its visible atomic action takes effect, e.g. the successful
    test-and-set inside Acquire).  The conformance checker in
    [threads_model] replays an event sequence against the formal
    specification; because the vocabulary lives here, below every backend,
    one spec checks all implementations — the paper's claim that the
    specification "describes all implementations of the interface"
    mechanized.

    The vocabulary is a type, one constructor per atomic action, so the
    compiler checks every match on it and no impossible event (an Acquire
    that raises) can be built.  Only this module spells the interface's
    procedure, action and formal names.

    Events are deliberately implementation-flavoured: they carry only what
    the implementation knows at the linearization instant.  In particular
    [removed] records the threads a Signal/Broadcast abstractly removed
    from the condition — the queued threads it moved to the ready pool
    {e plus} the threads then inside the wakeup-waiting race window, which
    its eventcount increment also releases (the paper: "Signal will
    unblock all such threads"). *)

(** The three procedures whose first action is Enqueue. *)
type wait = Wait | AlertWait | TimedWait

(** Objects are named by implementation id: [m] a mutex, [c] a condition,
    [s] a semaphore. *)
type action =
  | Acquire of { m : int }
  | Release of { m : int }
  | Enqueue of { proc : wait; m : int; c : int }
  | Resume of { m : int; c : int }  (** Wait's second action *)
  | AlertResume of { m : int; c : int; alerted : bool }
      (** AlertWait's second action; [alerted]: it raised Alerted *)
  | TimedResume of { m : int; c : int; timed_out : bool }
      (** TimedWait's second action; [timed_out]: it raised TimedOut *)
  | Signal of { c : int; removed : Threads_util.Tid.t list }
      (** [removed]: the threads abstractly removed from the condition *)
  | Broadcast of { c : int; removed : Threads_util.Tid.t list }
  | P of { s : int }
  | V of { s : int }
  | Alert of { t : Threads_util.Tid.t }
  | TestAlert of { result : bool }
  | AlertP of { s : int; alerted : bool }
  | TimedP of { s : int; timed_out : bool }

type event = { self : Threads_util.Tid.t; action : action }

(** [kind a] numbers the (procedure, action) pairs densely from 0, up to
    [kinds], with Enqueue once per procedure; [kind_names k] is kind [k]'s
    procedure and action name, e.g. [("Wait", "Enqueue")].  An atomic
    procedure's single action is named like the procedure. *)
val kind : action -> int
val kinds : int
val kind_names : int -> string * string
val proc_name : action -> string
val action_name : action -> string

(** [args a] — the arguments of [a]'s procedure, by the interface's formal
    names, in formal order: each object's implementation id, and Alert's
    target thread for its by-value formal [t]. *)
val args : action -> (string * int) list

(** What [a] observed: the exception it raised (["Alerted"] or
    ["TimedOut"]), TestAlert's result, and the threads a Signal or
    Broadcast removed. *)
val raises : action -> string option
val result : action -> bool option
val removed : action -> Threads_util.Tid.t list

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string

(** An append-only event collector.  Simulator runs subscribe one to the
    machine's spec actions ([Firefly.Record.trace]); the multicore
    backend appends from many domains at once (each append
    happens under the emitting object's linearizing lock, so the recorded
    order is a valid linearization). *)
module Sink : sig
  type t

  val create : unit -> t
  val emit : t -> event -> unit

  (** Events in emission order. *)
  val events : t -> event list
end
