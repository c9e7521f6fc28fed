(** Every experiment (E1–E10). *)

(** All experiments, in string order of their ids: E1, E10, E2, …, E9. *)
val all : Exp.t list

val find : string -> Exp.t option

(** [run_ids ids] — runs each (case-insensitive id match); returns the
    unknown ids. *)
val run_ids : string list -> string list

val run_all : unit -> unit
