(** Seeded fault-injection scenarios validating the dynamic analyzers.

    Each mutant is built to be caught by exactly one detector, and the
    control scenario by none — together they exercise the complementary
    guarantees: lockset is schedule-insensitive but trusts any
    consistently-held "lock"; happens-before is protocol-exact but only
    certifies the observed run; lock-order sees potential deadlocks even
    on surviving schedules. *)

type expect =
  | Hb  (** happens-before must report, lockset must not *)
  | Lockset  (** lockset must report *)
  | Lock_order  (** the lock-order graph must have a cycle *)
  | Clean  (** control: all analyzers must stay silent *)

type scenario = {
  m_name : string;
  m_description : string;
  m_expect : expect;
  m_run : seed:int -> (Firefly.Machine.t -> unit) -> Firefly.Machine.t;
      (** [m_run ~seed observe] runs the scenario to the end with
          [observe] subscribed to the machine, and returns the machine
          (the lock-inversion scenario may end deadlocked; its access
          stream is still analyzable) *)
}

val broken_spinlock : seed:int -> (Firefly.Machine.t -> unit) -> Firefly.Machine.t
val lock_inversion : seed:int -> (Firefly.Machine.t -> unit) -> Firefly.Machine.t

val all : scenario list
val find : string -> scenario option
val names : unit -> string list
