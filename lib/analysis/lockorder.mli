(** GoodLock-style lock-order analysis (Havelund, SPIN 2000).

    Builds the acquisition-order graph — an edge h → l whenever a thread
    attempted or succeeded in acquiring l while holding h — and reports
    its cycles.  A cycle is a potential deadlock even on schedules that
    happened to survive; attempts count as well as successes, so the
    classic AB/BA deadlock (whose inner acquisitions never complete)
    still closes its cycle. *)

type edge = {
  e_from : int;  (** held lock *)
  e_to : int;  (** acquired (or attempted) lock *)
  e_tid : int;  (** thread of the first witness *)
  e_seq : int;  (** sequence number of the first witness *)
}

type report = {
  locks : int list;  (** every lock id seen, ascending *)
  edges : edge list;  (** deduped by (from, to); first witness kept *)
  cycles : int list list;
      (** each cycle as its sorted member list; includes self-loops *)
}

val of_accesses :
  word_kind:(int -> Firefly.Machine.word_kind option) ->
  Firefly.Machine.access list ->
  report
(** Acquisitions from [A_lock_acq]/[A_lock_att] probe events plus every
    TAS on a [W_lock] word. *)

val of_lock_events : (int * int * bool) list -> report
(** Acquisitions from [(tid, lock, acquired)] events, each thread's in
    its program order (the mutex events of a spec trace,
    {!Analysis.of_trace}), replaying each thread's held set. *)

val pp_cycle :
  lock_name:(int -> string) -> Format.formatter -> int list -> unit
