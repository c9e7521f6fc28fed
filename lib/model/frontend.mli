(** The scenario front end shared by the spec model checkers ({!Checker}
    and [Threads_staticcheck.Engine]): everything about an exploration
    node — an abstract state plus one {!Program.phase} per thread — that
    does not depend on what the checker looks for. *)

type t = private {
  iface : Spec_core.Proc.interface;
  program : Program.t;
  objects : (string * Spec_core.Spec_obj.t) list;
      (** the declared objects, with positional ids 1, 2, … *)
  init_state : Spec_core.State.t;
      (** each object at its [initials] value or its sort's default *)
}

val make : Spec_core.Proc.interface -> Program.t -> t

(** Every thread before its first step. *)
val init_phases : t -> Program.phase array

val view : t -> Spec_core.State.t -> Program.phase array -> Program.view

val bindings_of :
  t ->
  Program.step ->
  Spec_core.Proc.t ->
  (string * Spec_core.Term.binding) list

(** [pending fe phases i] — the action thread [i] performs next, if any:
    [(step, proc, action, k, s)] for action [k] of [proc] at step [s]. *)
val pending :
  t ->
  Program.phase array ->
  int ->
  (Program.step * Spec_core.Proc.t * Spec_core.Proc.action * int * int)
  option

(** [advance fe i proc k s] — thread [i]'s phase after that action. *)
val advance : t -> int -> Spec_core.Proc.t -> int -> int -> Program.phase

(** The visited-set key of a node, open for a checker's ghost state. *)
val key_buffer : Spec_core.State.t -> Program.phase array -> Buffer.t
