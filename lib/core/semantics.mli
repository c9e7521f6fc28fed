(** Executable semantics of interface specifications, compiled once.

    {!compile} turns each procedure into closures: a formal becomes an
    argument position, an object reference a slot read of the pre or post
    {!State.t}, each REQUIRES, WHEN and ENSURES a closure, MODIFIES a set
    of formals.  A {!call} applies a compiled procedure to arguments over
    one state layout, and the checks below look up no name.  Compiled
    values hold no mutable state, so domains share them.  A clause naming
    what it cannot resolve (an unbound name, a [_post] in a one-state
    clause, [RESULT] with no return value) still compiles, and raises
    {!Term.Eval_error} when it is evaluated.

    [outcomes] enumerates the transitions an atomic action {e allows} from
    a pre state: candidate post states come from small per-sort pools
    (insert/delete of relevant threads, the empty set, NIL, SELF, the enum
    constants) and are filtered by ENSURES — sound by construction, and
    complete for the whole Threads interface and its historical variants.
    [check_transition] is the converse, for trace conformance: does some
    case admit an {e observed} (pre, post, outcome) triple? *)

type outcome = {
  o_case : int;  (** index of the firing case within the action *)
  o_outcome : Proc.outcome;
  o_post : State.t;
  o_result : Value.t option;
}

(** {1 The clause compiler} *)

(** A procedure's arguments, resolved against a state layout. *)
type args

(** [args bindings layout] — [bindings] in formal order; each VAR object
    becomes its slot in [layout] (raises [Not_found] if unbound). *)
val args : Term.binding list -> State.t -> args

(** A compiled clause, applied to the arguments, the value of SELF, the
    pre and post states and the RESULT value.  A one-state clause never
    reads its post state. *)
type 'a clause = args -> Value.t -> State.t -> State.t -> Value.t option -> 'a

(** [term ~formals ~two_state t] for a procedure with [formals], in order. *)
val term : formals:string list -> two_state:bool -> Term.t -> Value.t clause

val formula : formals:string list -> two_state:bool -> Formula.t -> bool clause

(** {1 Compiled procedures and calls} *)

type proc

(** REQUIRES and WHEN one-state, ENSURES two-state. *)
val compile_proc : Proc.t -> proc

val spec : proc -> Proc.t

type t

(** [memo f] is [f], with its results for the last 32 interfaces kept by
    their identity; safe to call from any domain. *)
val memo : (Proc.interface -> 'a) -> Proc.interface -> 'a

(** [compile iface], memoized on the identity of [iface]. *)
val compile : Proc.interface -> t

(** [find t name] — raises [Not_found]. *)
val find : t -> string -> proc

(** A procedure applied to arguments, by any thread.  It is used with
    states of its layout: that state, or one made from it by {!State.set},
    {!State.set_slot} or {!State.copy}. *)
type call

(** [call proc bindings layout] — [bindings] in formal order. *)
val call : proc -> Term.binding list -> State.t -> call

(** [bindings_of_args iface proc args] — the bindings, in formal order,
    after checking arity, VAR-ness and sorts; raises [Invalid_argument]. *)
val bindings_of_args :
  Proc.interface -> Proc.t -> [ `Obj of Spec_obj.t | `Val of Value.t ] list ->
  Term.binding list

(** [requires_holds call ~self pre] — whether REQUIRES holds when [self]
    makes the call; if not, the {e caller} is at fault. *)
val requires_holds : call -> self:Threads_util.Tid.t -> State.t -> bool

(** [enabled call ~self k pre] — the cases of action [k] whose WHEN holds
    in [pre]; empty means the action must delay. *)
val enabled : call -> self:Threads_util.Tid.t -> int -> State.t -> int list

(** [outcomes call ~self k pre] — every transition action [k] allows from
    [pre], by case, post state and result.  Objects outside MODIFIES keep
    their values. *)
val outcomes : call -> self:Threads_util.Tid.t -> int -> State.t -> outcome list

(** [check_transition call ~self k ~pre ~post ~outcome ~result] — [Ok
    case] for the first case of action [k] with the outcome's kind, its
    WHEN true in [pre] and its ENSURES true over (pre, post, result), when
    no object outside MODIFIES changed; [Error reason] otherwise. *)
val check_transition :
  call -> self:Threads_util.Tid.t -> int -> pre:State.t -> post:State.t ->
  outcome:Proc.outcome -> result:Value.t option -> (int, string) result
