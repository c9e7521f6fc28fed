(** Abstract two-tier states: the value of each specification object, one
    slot per object in increasing oid order ([alerts], oid 0, among them).

    States are persistent, so the model checker can branch cheaply: every
    function returns a new state except [write], the one in-place update,
    for the owner of a private {!copy}.  A state made from another by
    [set], [set_slot] or [copy] has the same objects in the same slots. *)

type t = private { objs : Spec_obj.t array; vals : Value.t array }
(** Slot [i] holds [vals.(i)], the value of [objs.(i)]. *)

(** The state binding nothing but [alerts = {}]. *)
val empty : t

(** [add obj v st] binds [obj]; the value must inhabit [obj.sort]. *)
val add : Spec_obj.t -> Value.t -> t -> t

(** [get st obj] — raises [Not_found] if unbound. *)
val get : t -> Spec_obj.t -> Value.t

(** [set st obj v] updates an existing binding (same sort check as [add]). *)
val set : t -> Spec_obj.t -> Value.t -> t

val alerts : t -> Threads_util.Tid.Set.t
val set_alerts : t -> Threads_util.Tid.Set.t -> t

(** [objects st] in increasing oid order ([alerts] first). *)
val objects : t -> Spec_obj.t list

(** [slot st obj] — raises [Not_found] if unbound. *)
val slot : t -> Spec_obj.t -> int

(** [set_slot st i v] is [set] by slot, without the sort check. *)
val set_slot : t -> int -> Value.t -> t

val copy : t -> t
val write : t -> int -> Value.t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
