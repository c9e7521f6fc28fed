(** Facade: every applicable analyzer over one recorded execution.

    Simulator-hosted backends yield a full access stream, feeding
    {!Lockset}, {!Hb} and {!Lockorder}; the hardware backend is analyzed
    from the spec trace its [run] returns, which feeds {!Lockorder}
    alone.  All outputs are deterministic functions of the capture. *)

type report = {
  n_accesses : int;
  n_data_words : int;  (** distinct checked (data) words touched *)
  n_exempt_words : int;  (** registered synchronization/atomic words *)
  lockset : Lockset.race list;
  hb : Hb.race list;
  lock_order : Lockorder.report;
  lock_name : int -> string;
}

(** The access log: subscribed to a machine's {!Firefly.Machine.K_access}
    stream with [record] before the run, it numbers accesses by [a_seq].
    [of_run log m] analyzes the accesses [log] recorded on [m], which
    supplies the word and lock registries. *)
type log

val log : unit -> log
val record : log -> Firefly.Machine.t -> unit
val accesses : log -> Firefly.Machine.access list
val of_run : log -> Firefly.Machine.t -> report

type backend_result = {
  br_outcome : Threads_backend.Backend.outcome;
  br_report : report;
}

val run_backend :
  Threads_backend.Backend.t ->
  seed:int ->
  Threads_backend.Workload.t ->
  backend_result
(** Run the workload through the backend's instrumented entry point (same
    seeds and schedules as its plain [run]) and analyze the capture; a
    backend with no machine ({!Threads_backend.Backend.No_instrument}) is
    run plainly and the lock order of its spec trace analyzed, with
    [n_accesses] counting the trace's mutex events. *)

val cycles : report -> int list list
val clean : report -> bool

val findings : report -> string list
(** All findings as one-line messages: lockset races, then
    happens-before races, then lock-order cycles. *)
