(** Static linter for interface specifications.

    Re-runs {!Spec_core.Proc.well_formed} (declared names, ENSURES names
    covered by MODIFIES AT MOST, one-state WHEN/REQUIRES, ...) and then
    model-checks each clause against a small-state universe — two threads
    and every sort's full value pool, exhaustive for the term language the
    Threads interface uses:

    - a WHEN guard satisfiable in no enumerated pre state (conjoined with
      REQUIRES for an atomic action or a composition's first action) is a
      dead case ({!Error});
    - an ENSURES admitting no post state from any enabling pre state is
      an unimplementable case ({!Error});
    - a MODIFIES name no ENSURES ever constrains leaves that object free
      to change arbitrarily ({!Warning}). *)

type severity = Error | Warning

(** What a finding is about, so downstream tools (the static verifier's
    diagnostic classes, JSON reports) need not parse messages. *)
type kind =
  | Well_formed  (** a {!Spec_core.Proc.well_formed} violation *)
  | Dead_case  (** WHEN never satisfiable *)
  | Unimplementable_case  (** ENSURES admits no post state *)
  | Unconstrained_modifies  (** MODIFIES name no ENSURES constrains *)
  | Eval_failure  (** the clause semantics raised while checking *)

val kind_name : kind -> string
(** Stable kebab-case name: ["well-formedness"], ["dead-case"],
    ["unimplementable-case"], ["unconstrained-modifies"],
    ["eval-failure"]. *)

type finding = {
  f_severity : severity;
  f_kind : kind;
  f_proc : string;
  f_msg : string;
  f_pos : Spec_core.Lexer.pos option;
      (** source position, when the interface came from the parser and a
          location table was supplied *)
}

val lint :
  ?locs:Spec_core.Parser.locs -> Spec_core.Proc.interface -> finding list
(** Findings in declaration order.  When [well_formed] reports anything,
    only those errors are returned (clause checks assume
    well-formedness).  [locs] attaches [FILE:LINE:COL]-able positions. *)

val errors : finding list -> finding list

val pp_finding : Format.formatter -> finding -> unit
(** Renders ["error: Proc: msg"], with a ["LINE:COL: "] prefix when the
    finding has a position. *)

(** {1 Small-state clause semantics, shared with the static verifier} *)

(** [enumerate iface p] — every (call, pre-state) pair over the small
    universe: VAR formals become objects named after them ranging over
    their sort's pool (positional ids [1..n]), by-value formals range over
    the argument pool, and [alerts] over all two-thread subsets.  The call
    is [p], compiled once; the distinguished SELF thread is id 1. *)
val enumerate :
  Spec_core.Proc.interface ->
  Spec_core.Proc.t ->
  (Spec_core.Semantics.call * Spec_core.State.t) list

(** [may_delay iface p] — whether some action of [p] can find every WHEN
    guard false in a reachable small-universe state (first actions are
    gated by REQUIRES), i.e. whether a call can block.  Procedures whose
    every action always has an enabled case (Release, Signal, V, ...,
    and TimedP, whose unguarded timeout case is always an out) never
    delay. *)
val may_delay : Spec_core.Proc.interface -> Spec_core.Proc.t -> bool
