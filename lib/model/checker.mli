(** Explicit-state model checker over the specification semantics.

    Explores every interleaving of atomic actions a scenario's threads can
    perform under a given interface, using the finitized outcome
    enumeration of {!Spec_core.Semantics} — so every behaviour the {e
    specification} allows is covered, including non-deterministic ENSURES
    and overlapping WHEN guards.  Visited states are memoized on (abstract
    state, program counters), extended by whatever ghost state the policy
    puts in the key.

    {!explore} is the only exploration; a {!policy} decides what it looks
    for.  {!run} is the first-violation policy.  The static verifier
    ([Threads_staticcheck.Engine]) is the classifying policy: it reports
    every finding and keeps a ghost bit in the key. *)

(** {1 The exploration} *)

(** What a checker does at each event of the DFS.  ['g] is ghost state
    carried along each path, starting at [root]. *)
type 'g policy = {
  root : 'g;
  key : Buffer.t -> 'g -> unit;
      (** append the part of the ghost that distinguishes visited nodes *)
  stop : unit -> bool;  (** asked before each pop; [true] ends the search *)
  report :
    'g ->
    [ `Invariant of Program.invariant_class | `Requires ] ->
    string ->
    unit;
      (** an invariant broken at a node, or a call made with REQUIRES false *)
  transition :
    Program.view ->
    'g ->
    int ->
    Program.step ->
    Spec_core.Proc.action ->
    Spec_core.Semantics.outcome ->
    'g;
      (** [transition pre g i step action o] — thread [i] (a program
          index) performs [action] of [step] from node [pre] with outcome
          [o]; the result is the successor's ghost *)
  stuck : Program.view -> 'g -> (int * Spec_core.Proc.action) list -> unit;
      (** a node where no action is enabled, with each unfinished thread
          and the action it waits at *)
}

(** [explore ~max_states iface scenario policy] runs the DFS to the end
    (or until [policy.stop ()]) and returns the distinct states visited
    and the transitions taken.  More than [max_states] states raise
    [Failure]. *)
val explore :
  max_states:int ->
  Spec_core.Proc.interface ->
  Program.t ->
  'g policy ->
  int * int

(** {1 The first-violation policy} *)

type trace_entry = {
  thread : int;  (** program index *)
  proc : string;
  action : string;
  outcome : Spec_core.Proc.outcome;
  case : int;
}

val pp_trace_entry : Format.formatter -> trace_entry -> unit

type violation = {
  kind : [ `Invariant | `Deadlock | `Requires ];
  message : string;
  trace : trace_entry list;  (** actions from the initial state *)
}

type result = {
  violation : violation option;  (** first one found (DFS order) *)
  states : int;  (** distinct states visited *)
  transitions : int;
}

(** [run iface scenario] explores until the first violation of the
    scenario's invariants, of a REQUIRES, or (unless allowed) a deadlock,
    and reports it with the path that reached it.  The space must be
    finite, which straight-line programs guarantee.  [max_states]
    (default 2_000_000) is a safety valve; hitting it raises [Failure]. *)
val run :
  ?max_states:int -> Spec_core.Proc.interface -> Program.t -> result

val pp_result : Format.formatter -> result -> unit
