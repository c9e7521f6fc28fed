(** Generation matrices: N scenarios over the run-matrix executor.

    Cell [i] of a campaign draws its program from the
    [Rng.cell ~base:seed ~index:i] stream (and, in chaos mode, a fault
    plan from a sub-stream), runs it, and classifies the result.  Results
    keep index order and the counterexample selected for shrinking is the
    lowest-index failure, so the whole report — including the minimized
    scenario — is byte-identical at any [jobs]. *)

type config = {
  policy : Generate.policy;
  runs : int;
  seed : int;  (** campaign base seed *)
  chaos : bool;  (** compose each scenario with a generated fault plan *)
  shrink : bool;  (** minimize the first counterexample *)
}

type result = {
  backend : Threads_backend.Backend.t;
  config : config;
  classes : (string * int) list;  (** label -> count, first-seen order *)
  failures : (int * Oracle.kind) list;  (** (run index, kind) *)
  first_failure : (int * Oracle.scenario * Oracle.kind * string) option;
  minimal : (Replay.file * Shrink.step list) option;
      (** shrunk first failure, when [shrink] *)
}

(** The scenario cell [index] runs — pure in [(config, backend, index)];
    [--replay]-independent reproduction of any campaign cell. *)
val scenario_of_cell :
  config -> Threads_backend.Backend.t -> int -> Oracle.scenario

(** Raises [Invalid_argument] if [config.chaos] and [backend] has no
    chaos driver. *)
val run :
  ?telemetry:Threads_runner.Telemetry.sink ->
  ?jobs:int ->
  Threads_backend.Backend.t ->
  config ->
  result

(** Deterministic report: equal (backend, config) render byte-equal. *)
val render : Format.formatter -> result -> unit
