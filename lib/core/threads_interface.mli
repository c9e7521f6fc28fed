(** The formal specification of the Threads synchronization primitives,
    as the paper gives it in [specs/threads.lspec] and parsed from that
    file at build time, plus the three historical variants discussed in
    its "Discussion" section, each an edit of {!final}'s AlertP or
    AlertResume.

    Procedures: [Acquire], [Release], [Wait] (= COMPOSITION OF Enqueue;
    Resume), [Signal], [Broadcast], [P], [V], [Alert], [TestAlert],
    [AlertP], [AlertWait] (= COMPOSITION OF Enqueue; AlertResume), plus
    this reproduction's timed extensions [TimedP] and [TimedWait]
    (= COMPOSITION OF Enqueue; TimedResume): the timeout cases RAISE
    [TimedOut]; an expired [TimedP] leaves the semaphore UNCHANGED, and
    an expired [TimedWait] still re-acquires the mutex and deletes SELF
    from the condition (delete of a non-member is the identity, covering
    the race with a Broadcast that already emptied it).

    Types: [Mutex = Thread INITIALLY NIL], [Condition = SET OF Thread
    INITIALLY {}], [Semaphore = (available, unavailable) INITIALLY
    available]; global [alerts : SET OF Thread INITIALLY {}]; exceptions
    [Alerted] and [TimedOut]. *)

(** The specification as published (after all three corrections): the
    parse of {!source}, made at build time by [lib/core/gen/gen_spec.exe]. *)
val final : Proc.interface

(** Incident 1 — the original release: AlertResume's RAISES case lacked
    the [m = NIL &] conjunct in its WHEN, so a thread could raise Alerted
    and seize the mutex while another thread held it.  Found "in less than
    an hour" by a newcomer.  Model checking finds a mutual-exclusion
    violation (experiment E7a). *)
val missing_mutex_guard : Proc.interface

(** Incident 2 — AlertP and AlertWait originally {e had} to raise Alerted
    when possible (the RETURNS cases required [~(SELF IN alerts)]).  The
    implementation was non-deterministic, so real traces violate this
    variant; the spec was weakened instead (experiment E7b). *)
val must_raise : Proc.interface

(** Incident 3 — Greg Nelson's bug: AlertResume's RAISES case ensured
    [UNCHANGED \[c\]], leaving the departed thread in the condition's set;
    a later Signal may remove it and wake nobody (experiment E7c). *)
val nelson_bug : Proc.interface

(** All four, with short tags: [("final", final); ...]. *)
val variants : (string * Proc.interface) list

(** The concrete-syntax source of {!final}: the text of
    [specs/threads.lspec], embedded at build time beside its parse.
    [check-spec] parses it again at run time for its clause positions. *)
val source : string
