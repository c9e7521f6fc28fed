(** Replayable scenario files.

    A minimized counterexample is rendered as a small line-based text
    file — backend, policy, schedule seed, optional fault plan, object
    counts, one line per thread — that [repro generate --replay=FILE]
    (and the corpus regression test) re-runs and re-classifies.  Parsing
    and printing round-trip: [parse (to_string f) = Ok f] for any
    canonical [f]. *)

type file = {
  backend : string;
  scenario : Oracle.scenario;
  expect : Oracle.kind option;
      (** the pinned classification, if the file records one *)
}

val to_string : file -> string
val print : Format.formatter -> file -> unit

(** [parse text] — [Error msg] names the first offending line. *)
val parse : string -> (file, string) result

val load : string -> (file, string) result
