(** Procedure and atomic-action specifications — the interface tier.

    Mirrors the paper's clause structure:

    - an ATOMIC PROCEDURE executes exactly one atomic action per call;
    - a PROCEDURE with [COMPOSITION OF a1; a2 END] executes the named
      actions in order, possibly interleaved with other threads' actions;
    - each atomic action has one or more {e cases} (the RETURNS/RAISES
      alternatives of AlertP/AlertResume), each guarded by a WHEN clause;
      when several guards hold the choice is the implementation's — the
      non-determinism discussed in the paper. *)

type outcome = Returns | Raises of string

val pp_outcome : Format.formatter -> outcome -> unit

type case = {
  c_outcome : outcome;
  c_when : Formula.t;  (** delay condition; [True] if omitted *)
  c_ensures : Formula.t;
}

type action = { a_name : string; a_cases : case list }

type formal_mode = By_var | By_value

type formal = { f_name : string; f_mode : formal_mode; f_type : string }
(** [f_type] is a declared TYPE name (e.g. ["Mutex"]); resolve to a sort
    via the enclosing {!interface}. *)

type kind =
  | Atomic of action
  | Composition of action list  (** at least two actions, executed in order *)

type t = {
  p_name : string;
  p_formals : formal list;
  p_returns : (string * Sort.t) option;
  p_raises : string list;
  p_requires : Formula.t;
  p_modifies : string list;  (** MODIFIES AT MOST, by formal/global name *)
  p_kind : kind;
}

type type_decl = { t_name : string; t_sort : Sort.t; t_init : Value.t }

type interface = {
  i_name : string;
  i_types : type_decl list;
  i_globals : (string * Sort.t * Value.t) list;
  i_exceptions : string list;
  i_procs : t list;
}

(** [actions p] lists the procedure's actions in execution order (a single
    pseudo-action named like the procedure for the atomic case). *)
val actions : t -> action list

(** [find_proc iface name] — raises [Not_found]. *)
val find_proc : interface -> string -> t

(** [sort_of_type iface name] resolves a TYPE name (or a global's name) to
    its sort; raises [Not_found]. *)
val sort_of_type : interface -> string -> Sort.t

(** [formal_sort iface p formal_name] — raises [Not_found]. *)
val formal_sort : interface -> t -> string -> Sort.t

(** {1 Editing an interface}

    Each returns [iface] with one part replaced by [f] of itself; parts
    that match no name are left alone. *)

(** [map_proc name f iface] edits the procedure [name]. *)
val map_proc : string -> (t -> t) -> interface -> interface

(** [map_case pname aname ci f iface] edits the 0-based case [ci] of
    action [aname] of procedure [pname] (an atomic procedure's one action
    is named like it). *)
val map_case :
  string -> string -> int -> (case -> case) -> interface -> interface

(** [well_formed iface] checks static rules and returns the list of
    violations (empty when well-formed):
    - every formal's type and every raised exception is declared;
    - every name in MODIFIES is a VAR formal or a declared global;
    - every [_post]/[UNCHANGED] name in an ENSURES is listed in MODIFIES;
    - WHEN and REQUIRES clauses are one-state (no [_post], no [UNCHANGED]);
    - a RAISES case's exception is declared in the procedure header;
    - compositions have at least two actions and atomic actions at least
      one case. *)
val well_formed : interface -> string list

val equal_interface : interface -> interface -> bool
