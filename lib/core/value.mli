(** Values of the specification tier.

    A [Mutex] is modelled as the thread holding it (or [Nil]); a [Condition]
    as the set of threads enqueued on it; a [Semaphore] as one of the two
    enumeration constants; the global [alerts] as a set of threads — exactly
    the abstractions of the paper's TYPE declarations. *)

type sem = Available | Unavailable

type t =
  | Nil  (** the NIL thread *)
  | Thread of Threads_util.Tid.t
  | Bool of bool
  | Int of int
  | Set of Threads_util.Tid.Set.t
  | Sem of sem

val equal : t -> t -> bool
val compare : t -> t -> int

(** [has_sort v s] — [Nil] has sort [Thread]. *)
val has_sort : t -> Sort.t -> bool

(** [initial s] is the paper's INITIALLY value for sort [s]: [Nil] for
    mutexes/threads, the empty set for conditions, [available] for
    semaphores, [false]/[0] for bool/int. *)
val initial : Sort.t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Set-typed helpers; all raise [Invalid_argument] on sort mismatch. *)

val insert : t -> t -> t
(** [insert set thread] is [insert(set, thread)] of the shared tier. *)

val delete : t -> t -> t
(** [delete set thread]. *)

val member : t -> t -> bool
(** [member thread set]. *)

val subset : t -> t -> bool
(** [subset s1 s2] is [s1 ⊆ s2]. *)

val as_set : t -> Threads_util.Tid.Set.t
val as_bool : t -> bool
