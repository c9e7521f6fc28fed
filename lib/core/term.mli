(** Terms of the interface-specification language.

    A term denotes a value in a (pre, post) state pair.  Following the
    paper: an unsubscripted formal stands for its value in the pre state;
    [x_post] for its value in the post state; [SELF] for the executing
    thread; [RESULT] for the procedure's return formal (defined only in the
    post state). *)

type stage = Pre | Post

type t =
  | Self
  | Nil_const
  | Lit of Value.t
  | Ref of string * stage  (** formal parameter or global, by name *)
  | Result  (** the RETURNS formal, e.g. [b] in TestAlert *)
  | Insert of t * t  (** [insert(set, thread)] *)
  | Delete of t * t  (** [delete(set, thread)] *)
  | Empty_set

(** What a formal is bound to in a call: a VAR formal denotes a mutable
    object looked up in the state; a by-value formal (or a literal binding)
    denotes the same value in both stages. *)
type binding = Obj of Spec_obj.t | Const of Value.t

(** Raised by the compiled clauses of {!Semantics} on an unbound name, on a
    [_post] reference in a one-state predicate, on [RESULT] with no return
    value. *)
exception Eval_error of string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
