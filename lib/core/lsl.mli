(** The Larch Shared Language tier (tier 1 of the two-tiered approach).

    The paper: "The Larch Shared Language tier is algebraic, and defines
    mathematical abstractions that can be used in the interface language
    tier ...  all the abstractions needed for the Threads specification are
    well known (e.g., booleans, integers, and sets) and appear in the Larch
    Shared Language Handbook."

    This module makes that tier concrete: a {e trait} is a signature
    (operators with sorts) plus equations over universally quantified
    variables.  A {e model} interprets each operator as a function over
    {!Value.t}.  [holds] checks an equation on one variable assignment;
    the test suite property-checks every equation of {!set_trait} against
    the {!Value} implementation the interface tier actually computes with —
    so tier 1 axiomatizes exactly what tier 2 uses, and the two are kept
    honest mechanically. *)

(** Sorts of the algebraic tier (a deliberately small universe: the traits
    the Threads specification needs). *)
type lsl_sort = L_bool | L_elem  (** thread ids *) | L_set

type term =
  | Var of string * lsl_sort
  | App of string * term list  (** operator application *)

type operator = { op_name : string; op_args : lsl_sort list; op_res : lsl_sort }

type equation = { eq_name : string; left : term; right : term }

type trait = {
  tr_name : string;
  tr_ops : operator list;
  tr_eqs : equation list;
}

(** A model: total interpretations of the operators over {!Value.t}.
    Raises on unknown operator. *)
type model = string -> Value.t list -> Value.t

(** The standard model: [empty]/[insert]/[delete]/[member]/[subset]/
    [union] interpreted by {!Value}'s set operations, booleans by
    [Value.Bool], with [eq] on elements. *)
val value_model : model

(** The Set-of-Thread trait from the Larch handbook lineage: generators
    [empty]/[insert], observers [member]/[subset], plus [delete] and
    [union], axiomatized by 12 equations. *)
val set_trait : trait

(** [sort_check trait] — every equation's two sides must be well-sorted
    with the same sort, variables used consistently.  Returns violations
    (empty = well-sorted). *)
val sort_check : trait -> string list

(** [vars_of eq] — the variables of an equation (name, sort), deduplicated. *)
val vars_of : equation -> (string * lsl_sort) list

(** [eval model assignment term] — raises [Invalid_argument] on unbound
    variables or sort errors in the model. *)
val eval : model -> (string * Value.t) list -> term -> Value.t

(** [holds model assignment eq] — do both sides evaluate equal? *)
val holds : model -> (string * Value.t) list -> equation -> bool

val pp_equation : Format.formatter -> equation -> unit
