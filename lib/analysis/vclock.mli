(** Mutable vector clocks over thread ids (indices), growing on demand;
    absent entries read as 0. *)

type t

val create : unit -> t

(** Component [i] (0 for unseen threads or negative indices). *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [incr c i] bumps component [i] — a thread's release increment. *)
val incr : t -> int -> unit

(** [join a b] — pointwise maximum, into [a]. *)
val join : t -> t -> unit

(** [leq_epoch ~tid ~clock c] — does the epoch [(tid, clock)]
    happen-before (or equal) the time [c] knows?  I.e. [clock <= c(tid)]. *)
val leq_epoch : tid:int -> clock:int -> t -> bool
