(** Specification-level objects.

    Each synchronization object a client program manipulates (a particular
    mutex, condition variable, or semaphore) is an object with a stable
    identity; a {!State.t} maps objects to their current abstract values.
    The global [alerts] variable is itself an object, {!alerts}. *)

type t = private { oid : int; name : string; sort : Sort.t }

(** [create name sort] allocates a fresh object.  Identities are unique for
    the lifetime of the process (domain-safe: the allocator is atomic). *)
val create : string -> Sort.t -> t

(** [make ~oid name sort] builds an object with a caller-chosen identity.
    For contexts that need {e deterministic} identities — conformance
    checks and model-checker runs executing on parallel domains, whose
    reports must be byte-identical whatever the execution order.  The
    caller guarantees [oid <> 0] (reserved for {!alerts}) and uniqueness
    among objects sharing a {!State.t}. *)
val make : oid:int -> string -> Sort.t -> t

(** The distinguished global [VAR alerts: SET OF Thread INITIALLY {}]. *)
val alerts : t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
