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

(** [acquire ?obs l] busy-waits until the bit is won.  Spin iterations are
    counted under the machine counter ["spin.iterations"]; with [?obs]
    set to an object name (e.g. ["mutex#2"]), contended acquisitions are
    additionally recorded in the instrument registry as
    ["<obs>.spin_iters"] / ["<obs>.spin_cycles"] counters and a
    ["spin <obs>"] span (zero simulated cost).  After a failed TAS the
    bare loop declares {!Firefly.Machine.Probe.spin_on} on the lock bit
    and clears it once the bit is won; the backoff loop of chaos runs
    never declares. *)
val acquire : ?obs:string -> t -> unit

val release : t -> unit

(** The lock-bit address, for [deschedule_and_clear]. *)
val addr : t -> int
