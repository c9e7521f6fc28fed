(** The Nub's spin-lock, on real hardware: an [Atomic.t bool] acquired by
    busy-waiting on compare-and-set (the test-and-set loop of the paper)
    with [Domain.cpu_relax] between attempts. *)

type t

val create : unit -> t
val acquire : t -> unit
val release : t -> unit
