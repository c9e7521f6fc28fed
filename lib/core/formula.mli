(** Predicates of the interface-specification language.

    Formulas appear in REQUIRES clauses (one-state, pre only), WHEN clauses
    (one-state, evaluated at the instant the atomic action fires) and
    ENSURES clauses (two-state, relating pre and post). *)

type t =
  | True
  | False
  | Truth of Term.t
      (** a bool-sorted term as a predicate, e.g. the return formal [b] *)
  | Eq of Term.t * Term.t
  | Iff of t * t
      (** [=] between predicates, as in TestAlert's
          [b = (SELF IN alerts)] *)
  | Member of Term.t * Term.t  (** [x IN s] *)
  | Subset of Term.t * Term.t  (** [s1 SUBSET s2], i.e. s1 ⊆ s2 *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Unchanged of string list
      (** [UNCHANGED \[x, y\]]: each named VAR formal/global has equal value
          in pre and post states *)

(** [names f] is the set of formal/global names referenced (sorted,
    deduplicated); used by well-formedness checks. *)
val names : t -> string list

(** [post_names f] is the subset of {!names} referenced in the post state
    (via [_post] or [UNCHANGED]); MODIFIES AT MOST must cover them. *)
val post_names : t -> string list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
