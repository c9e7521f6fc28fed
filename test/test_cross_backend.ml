(* Differential conformance across the backend registry.

   The conforming backends (sim, uniproc, multicore) must replay every
   workload trace against the formal specification with zero violations
   and agree on the observable.  The two baselines must diverge exactly
   where the paper's experiments say: naive strands waiters under
   Broadcast (E5) and hoare's hand-off signal violates Resume's
   WHEN (m = NIL) (E8). *)

module Bk = Threads_backend.Backend
module Wl = Threads_backend.Workload
module Cc = Threads_backend.Crosscheck

let backend name =
  match Bk.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %S not registered" name

let workload name =
  match Wl.find name with
  | Some w -> w
  | None -> Alcotest.failf "workload %S not registered" name

let check_ok b w ~seeds () =
  let s = Cc.conform (backend b) (workload w) ~seeds in
  (match Cc.first_error s with
  | Some e -> Alcotest.failf "%s/%s: %s" b w e
  | None -> ());
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s ok (completed, agreed, 0 violations)" b w)
    true (Cc.ok s)

(* E5: the rejected conditions-as-binary-semaphores design.  Its trace
   still conforms (coalescing Vs are legal for the spec's Signal, which
   may wake nobody) — the failure is the stranding itself, visible as a
   deadlock verdict on schedules where the broadcaster's Vs coalesce. *)
let naive_strands_broadcast () =
  let s = Cc.conform (backend "naive") (workload "broadcast") ~seeds:5 in
  Alcotest.(check int) "naive trace still conforms" 0 (Cc.violations s);
  let stranded =
    List.length
      (List.filter
         (fun (r : Cc.run) -> r.verdict = Bk.Deadlocked)
         s.runs)
  in
  if stranded = 0 then
    Alcotest.fail "naive backend never stranded a waiter under broadcast (E5)"

(* The one-bit design is sound for Signal (paper, section 6): with a
   single consumer the condvar workload must run clean. *)
let naive_signal_sound () = check_ok "naive" "condvar" ~seeds:3 ()

(* E8: Hoare signal transfers the mutex inside one atomic action, so the
   woken thread's Resume commits while m is the signaller, not NIL.
   Every effective signal yields exactly one violation, always on the
   Wait.Resume event. *)
let hoare_violates_resume () =
  let s = Cc.conform (backend "hoare") (workload "condvar") ~seeds:2 in
  Alcotest.(check bool) "hoare completes" true (Cc.completed s);
  if Cc.violations s = 0 then
    Alcotest.fail "hoare backend produced no Resume violations (E8)";
  List.iter
    (fun (r : Cc.run) ->
      List.iter
        (fun (e : Threads_model.Conformance.error) ->
          match e.event.action with
          | Resume _ -> ()
          | _ ->
            Alcotest.failf "non-Resume violation: %a" Spec_trace.pp_event
              e.event)
        r.report.Threads_model.Conformance.errors)
    s.runs

(* Hoare's mutual exclusion itself is fine — only signal diverges. *)
let hoare_mutex_clean () = check_ok "hoare" "mutex" ~seeds:3 ()

let feature_gating () =
  let alert = workload "alert" in
  List.iter
    (fun name ->
      let s = Cc.conform (backend name) alert ~seeds:1 in
      Alcotest.(check bool) (name ^ " skips alert workload") true s.skipped)
    [ "naive"; "hoare" ]

let conforming_cases =
  (* Three conforming backends x (more than) two workloads each. *)
  List.concat_map
    (fun (b, seeds) ->
      List.map
        (fun w ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s conforms" b w)
            `Quick
            (check_ok b w ~seeds))
        [ "mutex"; "condvar"; "semaphore"; "broadcast" ])
    [ ("sim", 3); ("uniproc", 3); ("multicore", 2) ]

let suite =
  ( "cross-backend",
    conforming_cases
    @ [
        Alcotest.test_case "naive strands broadcast (E5)" `Quick
          naive_strands_broadcast;
        Alcotest.test_case "naive signal is sound" `Quick naive_signal_sound;
        Alcotest.test_case "hoare violates Resume (E8)" `Quick
          hoare_violates_resume;
        Alcotest.test_case "hoare mutex clean" `Quick hoare_mutex_clean;
        Alcotest.test_case "feature gating skips alerts" `Quick feature_gating;
      ] )
