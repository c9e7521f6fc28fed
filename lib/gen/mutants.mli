(** Mutation adequacy of the generative engine.

    For each seeded spec defect in [Threads_staticcheck.Spec_mutants],
    decide whether generated scenarios distinguish the mutant interface
    from the pristine one — i.e. whether the generator would have caught
    that spec bug.  Two differentials are tried, both deterministic in
    the seed:

    - {e concrete}: run a generated program on a backend, then check the
      one emitted trace against both interfaces; different error sets
      (or REQUIRES counts) kill the mutant.  This catches strengthened
      specs on conforming traces and weakened specs on the divergent
      baselines' violating traces.
    - {e abstract}: translate the generated program into a
      [Threads_model.Program] scenario and exhaustively model-check it
      under both interfaces; a different (violation, states, transitions)
      fingerprint kills the mutant.  This catches enabling-condition
      mutants (dropped WHEN, contradictory guards) that no single
      concrete trace can witness. *)

type row = {
  r_mutant : string;  (** [Spec_mutants] name *)
  r_expected : string;  (** the static verifier's diagnostic class *)
  r_killed : string option;  (** first killing evidence, [None] = survived *)
}

(** [kill_table ~seed ()] — run every mutant against [scenarios]
    generated programs (default 12) per differential.  Deterministic in
    [seed]. *)
val kill_table : ?scenarios:int -> seed:int -> unit -> row list

val killed : row list -> int
val render : Format.formatter -> row list -> unit
