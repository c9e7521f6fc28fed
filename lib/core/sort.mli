(** Sorts of the Larch Shared Language tier used by the Threads interface.

    The paper's interface needs only a handful of well-known abstractions
    (booleans, threads, sets of threads, a two-valued semaphore enum), all of
    which appear in the Larch Shared Language Handbook; we model them as a
    fixed universe of sorts. *)

type t =
  | Thread  (** a thread identity, or the distinguished [NIL] *)
  | Bool
  | Int
  | Thread_set  (** [SET OF Thread] *)
  | Semaphore  (** the enumeration [(available, unavailable)] *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
