(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction (schedulers, workload
    generators, seed sweeps) draws from this generator so that any run is
    reproducible from its integer seed alone.  We deliberately avoid
    [Stdlib.Random] to keep the stream independent of OCaml version.

    Domain-safety: there is no global generator state — every [t] is an
    independent heap value, and the run-matrix executor gives each matrix
    cell its own instance ({!cell}), so parallel runs never contend on or
    perturb each other's streams.  An individual [t] is not itself safe
    to share across domains; don't. *)

type t

(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [next t] returns the next raw 62-bit non-negative integer. *)
val next : t -> int

(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0].
    [next] and [int] allocate nothing. *)
val int : t -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [pick t arr] returns a uniformly chosen element of [arr].
    Requires [arr] non-empty. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [split t] derives a new generator whose stream is independent of the
    parent's subsequent draws. *)
val split : t -> t

(** [cell ~base ~index] is a fresh generator for matrix cell [index] of a
    run family seeded by [base]: deterministic in [(base, index)], with
    streams statistically independent across cells (the pair is hashed
    through the splitmix output mixer, so adjacent indices do not yield
    adjacent — correlated — raw seeds).  Requires [index >= 0]. *)
val cell : base:int -> index:int -> t
