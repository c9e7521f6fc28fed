(** Fault plans: the deterministic scripts the chaos engine replays.

    Each action carries an [after] trigger measured in {e driver steps}
    (not cycles): the engine applies it at the first loop iteration whose
    step count has reached it, so the same plan on the same seed perturbs
    the same point of the schedule every run. *)

type action =
  | Delay_wakeups of { after : int; width : int; delay : int }
      (** For [width] steps from the trigger, every package wakeup
          interrupt ([Ops.ready]) is held back [delay] cycles — widening
          the paper's wakeup-waiting race window.  A held wakeup whose
          target has meanwhile moved on (woken otherwise, or timed out)
          is stale and is discarded, like a real lost interrupt. *)
  | Drop_wakeup of { after : int }  (** Drop the next wakeup outright. *)
  | Spurious_wakeup of { after : int }
      (** Run a registered [*.spurious] chaos hook: a package-level
          Signal (permitted by the spec's subset ENSURES) — never a raw
          machine wake, which could violate Resume's WHEN. *)
  | Alert_storm of { after : int; count : int }
      (** Alert the [count] lowest live tids via the [pkg.alert] hook. *)
  | Stall of { after : int; tid : int; duration : int }
      (** Keep [tid] off the processor for [duration] steps. *)
  | Crash_stop of { after : int; tid : int }
      (** {!Firefly.Machine.kill}: the thread dies without unwinding —
          held locks stay held, finalizers do not run. *)
  | Contention_burst of { after : int; count : int }
      (** Run a registered [*.contend] hook: [count] acquire/release
          pairs on a package spin-lock from an injector thread. *)

type t = { id : int; actions : action list }

(** Trigger step of an action. *)
val trigger : action -> int

val describe : t -> string

(** Number of distinct plan families [generate] cycles through. *)
val families : int

(** [generate ~plan_id ()] is a fixed, reproducible plan: equal ids
    yield equal plans, and consecutive ids cycle through the action
    families with id-seeded jitter. *)
val generate : plan_id:int -> unit -> t

(** [random ~seed ~id] is a free-form plan for generative campaigns: an
    arbitrary-length mix of action families drawn from the
    [Rng.cell ~base:seed ~index:id] stream.  Deterministic in
    [(seed, id)]. *)
val random : seed:int -> id:int -> t

(** Total magnitude of a plan's parameters (shrink tie-breaker). *)
val weight : t -> int

(** [shrink p] — strictly-simpler candidate plans, deterministic order:
    each action dropped, then each action's magnitude halved.  Greedy
    minimization terminates because [(List.length p.actions, weight p)]
    decreases lexicographically along any accepted chain. *)
val shrink : t -> t list

(** One-line round-trip encoding of an action, for replay files.
    [decode_action (encode_action a) = Some a]. *)
val encode_action : action -> string

val decode_action : string -> action option
