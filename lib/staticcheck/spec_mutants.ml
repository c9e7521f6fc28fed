(* Seeded spec defects for the static verifier's self-test.

   Each mutant plants one historically-motivated defect class in the
   pristine Threads interface; [Speccheck.check] must flag every one,
   each with the distinct primary diagnostic class recorded here, while
   the pristine spec passes with zero findings.  Several reproduce the
   paper's own incidents: [enqueue-keeps-mutex] is the wakeup-waiting
   defect (the reason Wait is specified as a two-action composition),
   [nelson-bug] is E7c, [missing-mutex-guard] is E7a. *)

open Spec_core
module P = Proc

type t = {
  m_name : string;
  m_expected : string;  (* the primary diagnostic class Speccheck must report *)
  m_description : string;
  m_iface : P.interface;
}

let pre n = Term.Ref (n, Term.Pre)
let post n = Term.Ref (n, Term.Post)
let f_and a b = Formula.And (a, b)

(* ---- the corpus ---- *)

let base = Threads_interface.final

(* Built on each call, not at program start: only the mutant sweeps use
   it, and a process that runs neither pays nothing. *)
let all () =
  [
    {
      m_name = "signal-frame-violation";
      m_expected = "well-formedness";
      m_description =
        "Signal's ENSURES constrains alerts_post without listing alerts \
         in MODIFIES AT MOST";
      m_iface =
        P.map_case "Signal" "Signal" 0
          (fun c ->
            {
              c with
              P.c_ensures =
                f_and c.P.c_ensures
                  (Formula.Eq (post "alerts", pre "alerts"));
            })
          base;
    };
    {
      m_name = "signal-unconstrained-modifies";
      m_expected = "unconstrained-modifies";
      m_description =
        "Signal's MODIFIES AT MOST gains alerts but no ENSURES constrains \
         it — the spec lets Signal scribble on the alert set";
      m_iface =
        P.map_proc "Signal"
          (fun p -> { p with P.p_modifies = p.P.p_modifies @ [ "alerts" ] })
          base;
    };
    {
      m_name = "acquire-when-contradictory";
      m_expected = "dead-case";
      m_description = "Acquire's WHEN is strengthened into a contradiction";
      m_iface =
        P.map_case "Acquire" "Acquire" 0
          (fun c ->
            {
              c with
              P.c_when =
                f_and c.P.c_when
                  (Formula.Not (Formula.Eq (pre "m", Term.Nil_const)));
            })
          base;
    };
    {
      m_name = "v-ensures-contradictory";
      m_expected = "unimplementable-case";
      m_description = "V's ENSURES demands two different post values of s";
      m_iface =
        P.map_case "V" "V" 0
          (fun c ->
            {
              c with
              P.c_ensures =
                f_and c.P.c_ensures
                  (Formula.Eq (post "s", Term.Lit (Value.Sem Value.Unavailable)));
            })
          base;
    };
    {
      m_name = "p-when-dropped";
      m_expected = "exclusion";
      m_description =
        "P loses its WHEN s = available guard, so it proceeds on an \
         unavailable semaphore — binary-semaphore mutual exclusion breaks";
      m_iface =
        P.map_case "P" "P" 0 (fun c -> { c with P.c_when = Formula.True }) base;
    };
    {
      m_name = "missing-mutex-guard";
      m_expected = "mutex-theft";
      m_description =
        "AlertResume loses its m = NIL guards (E7a): an alerted waiter \
         seizes the mutex while another thread holds it";
      m_iface =
        (* The historical variant drops only the RAISES case's guard.
           The RETURNS case loses its m = NIL too: without it, generated
           programs ([generate --mutants]) cannot tell this mutant from
           the pristine spec. *)
        P.map_case "AlertWait" "AlertResume" 0
          (fun c ->
            {
              c with
              P.c_when = Formula.Not (Formula.Member (Term.Self, pre "c"));
            })
          Threads_interface.missing_mutex_guard;
    };
    {
      m_name = "nelson-bug";
      m_expected = "stale-waiter";
      m_description =
        "AlertResume's Alerted case keeps UNCHANGED [c] (E7c): the \
         departed thread lingers in the condition queue";
      m_iface = Threads_interface.nelson_bug;
    };
    {
      m_name = "resume-requires-alert";
      m_expected = "signal-loss";
      m_description =
        "Wait's Resume additionally demands SELF IN alerts: a delivered \
         signal can no longer wake the waiter";
      m_iface =
        P.map_case "Wait" "Resume" 0
          (fun c ->
            {
              c with
              P.c_when =
                f_and c.P.c_when (Formula.Member (Term.Self, pre "alerts"));
            })
          base;
    };
    {
      m_name = "enqueue-keeps-mutex";
      m_expected = "wakeup-window";
      m_description =
        "Wait's Enqueue keeps the mutex instead of releasing it — the \
         signaller can never get in, so no interleaving delivers a wakeup \
         (the paper's wakeup-waiting defect)";
      m_iface =
        P.map_case "Wait" "Enqueue" 0
          (fun c ->
            {
              c with
              P.c_ensures =
                f_and
                  (Formula.Eq
                     (post "c", Term.Insert (pre "c", Term.Self)))
                  (Formula.Eq (post "m", Term.Self));
            })
          base;
    };
    {
      m_name = "alert-resume-overguarded";
      m_expected = "alert-loss";
      m_description =
        "AlertResume's Alerted case additionally demands ~(SELF IN c): an \
         alerted thread still enqueued can never leave the wait";
      m_iface =
        P.map_case "AlertWait" "AlertResume" 1
          (fun c ->
            {
              c with
              P.c_when =
                f_and c.P.c_when
                  (Formula.Not (Formula.Member (Term.Self, pre "c")));
            })
          base;
    };
  ]

let find name = List.find_opt (fun m -> m.m_name = name) (all ())
