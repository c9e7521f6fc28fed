(** Thread identities.

    Both the specification tier ([spec_core]) and every implementation tier
    (simulator, uniprocessor, multicore) identify threads by these small
    integers, so abstraction functions between tiers are the identity on
    thread names. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Sets of thread ids, used for [SET OF Thread] spec values and for
    waiter queues' abstract views. *)
module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  (** [of_int_list xs] builds a set from a list of ids. *)
  val of_int_list : int list -> t
end
