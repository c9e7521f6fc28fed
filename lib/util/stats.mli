(** Summary statistics for experiment measurements. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** [summarize samples] computes the summary of a non-empty list. *)
val summarize : float list -> summary

(** [summarize_ints samples] is [summarize] over integer samples. *)
val summarize_ints : int list -> summary

(** [mean samples] of a non-empty list. *)
val mean : float list -> float

(** [stddev samples] is the population standard deviation. *)
val stddev : float list -> float

(** [percentile p sorted] linearly interpolates the [p]-th percentile
    (0 <= p <= 100) of an already sorted array. *)
val percentile : float -> float array -> float

