(** The Nub's primitive mutual-exclusion mechanism: a globally shared bit
    acquired by busy-waiting in a test-and-set loop and released by
    clearing the bit (paper, Implementation section).

    Nub subroutines bracket their visible actions with [acquire]/[release];
    the deschedule path releases it atomically via
    {!Firefly.Machine.Ops.deschedule_and_clear}. *)

type t

(** [create ?name ()] — allocates the lock bit (thread context) and
    registers it as a [W_lock] word under [name] for the analyzers. *)
val create : ?name:string -> unit -> t

(** The instrument names of one observed object's contended
    acquisitions: [obs n] is ["<n>.spin_iters"], ["<n>.spin_cycles"] and
    the span ["spin <n>"].  Build it once, when the object is created. *)
type obs

val obs : string -> obs

(** [acquire ?obs l] busy-waits until the bit is won.  Spin iterations are
    counted under the machine counter ["spin.iterations"]; with [?obs]
    (e.g. [obs "mutex#2"]), contended acquisitions are additionally
    recorded in the instrument registry under its names (zero simulated
    cost).  After a failed TAS the bare loop declares
    {!Firefly.Machine.Probe.spin_on} on the lock bit and clears it once
    the bit is won; the backoff loop of chaos runs declares once its
    backoff has reached its cap, from when each retry is the same. *)
val acquire : ?obs:obs -> t -> unit

val release : t -> unit

(** The lock-bit address, for [deschedule_and_clear]. *)
val addr : t -> int
