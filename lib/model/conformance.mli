(** Trace conformance: does an implementation execution refine the formal
    specification?

    The checker replays a {!Spec_trace} event sequence, maintaining the
    specification-level abstract state itself (no ghost state in the
    implementation): each event's constructor determines the abstract post
    state — e.g. an Acquire event sets the mutex to the emitting thread, a
    Signal event removes exactly the threads listed in [removed].  Each
    kind of event ({!Spec_trace.kind}) is mapped to its procedure and
    action of the interface once per interface, and each distinct call
    of a trace is bound to the formals once, so nothing is looked up by
    name per event.  Every transition is then validated against the
    interface's clauses with {!Spec_core.Semantics.check_transition}:

    - some case of the action must have the matching RETURNS/RAISES kind,
      its WHEN true in the pre state and its ENSURES true over (pre, post);
    - objects outside MODIFIES AT MOST must be unchanged;
    - REQUIRES is checked at the procedure's first action (a violation is
      the {e caller's} fault and reported separately);
    - a composition's actions must occur in order, per thread;
    - an event whose procedure the interface lacks is a violation ("no
      such procedure in the interface").

    Checking the same trace against a buggy historical variant of the
    specification shows exactly which events that variant cannot explain —
    experiment E7b. *)

type error = {
  index : int;  (** position in the trace *)
  event : Spec_trace.event;
  message : string;
}

type report = {
  events : int;
  errors : error list;  (** spec violations (implementation at fault) *)
  requires_violations : error list;  (** caller obligations broken *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

(** [check iface trace] replays [trace] against [iface].  The trace comes
    from any backend's {!Spec_trace.Sink} — this module deliberately knows
    nothing about how an implementation executes, only what it claims its
    atomic actions did. *)
val check : Spec_core.Proc.interface -> Spec_trace.event list -> report
