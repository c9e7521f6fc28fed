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

    Events are deliberately implementation-flavoured: they carry only what
    the implementation knows at the linearization instant.  In particular
    [removed] records the threads a Signal/Broadcast abstractly removed
    from the condition — the queued threads it moved to the ready pool
    {e plus} the threads then inside the wakeup-waiting race window, which
    its eventcount increment also releases (the paper: "Signal will
    unblock all such threads"). *)

type arg =
  | Obj of int  (** a synchronization object, by implementation id *)
  | Thr of Threads_util.Tid.t  (** a by-value thread argument *)

type outcome = Ret | Raise of string

type event = {
  proc : string;  (** procedure name, e.g. "Wait" *)
  action : string;  (** atomic action, e.g. "Enqueue"; = [proc] if atomic *)
  self : Threads_util.Tid.t;
  args : (string * arg) list;  (** formal name -> argument *)
  outcome : outcome;
  result_bool : bool option;  (** TestAlert's return value *)
  removed : Threads_util.Tid.t list;
      (** Signal/Broadcast: threads abstractly removed from the condition *)
}

val make :
  proc:string ->
  ?action:string ->
  self:Threads_util.Tid.t ->
  args:(string * arg) list ->
  ?outcome:outcome ->
  ?result_bool:bool ->
  ?removed:Threads_util.Tid.t list ->
  unit ->
  event

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
