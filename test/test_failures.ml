(* Failure injection: client bugs must stay contained — the machine keeps
   running, other threads are unaffected where the spec says so, and the
   conformance checker attributes fault correctly. *)

module Tid = Threads_util.Tid
module Ops = Firefly.Machine.Ops

let test_exception_in_critical_section_without_sugar () =
  (* A thread that dies holding the mutex (no LOCK/with_lock sugar):
     the lock stays held — every later Acquire blocks.  This is the
     behaviour the TRY..FINALLY sugar exists to prevent. *)
  let r =
    Taos_threads.Api.run ~seed:1 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
        in
        let m = S.mutex () in
        let dead =
          S.fork (fun () ->
              S.acquire m;
              failwith "died in critical section")
        in
        S.join dead;
        (* this acquire must block forever *)
        S.acquire m)
  in
  (match r.Firefly.Interleave.verdict with
  | Firefly.Interleave.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected the orphaned lock to wedge the acquirer");
  (* the dead thread's failure is recorded, the machine survived *)
  match Firefly.Machine.failures r.Firefly.Interleave.machine with
  | [ (_, Failure msg) ] when msg = "died in critical section" -> ()
  | _ -> Alcotest.fail "failure not recorded"

let test_wait_without_holding () =
  (* Calling Wait with REQUIRES false: the spec allows anything; our
     implementation neither crashes the machine nor corrupts other
     threads, and the conformance checker pins the blame on the caller. *)
  let _, trace =
    Taos_threads.Api.run_traced ~seed:2 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
        in
        let m = S.mutex () in
        let c = S.condition () in
        let rogue = S.fork (fun () -> S.wait m c) in
        (* an innocent bystander keeps working on a different mutex *)
        let m2 = S.mutex () in
        let n = ref 0 in
        let good =
          S.fork (fun () ->
              for _ = 1 to 10 do
                S.with_lock m2 (fun () -> incr n)
              done)
        in
        S.join good;
        if !n <> 10 then failwith "bystander corrupted";
        S.signal c;
        S.broadcast c;
        (try S.join rogue with _ -> ()))
  in
  (* run may or may not complete (the rogue can stay blocked); what
     matters is attribution *)
  let rep =
    Threads_model.Conformance.check Spec_core.Threads_interface.final
      trace
  in
  Alcotest.(check bool) "caller blamed" true
    (List.exists
       (fun (e : Threads_model.Conformance.error) ->
         match e.event.action with
         | Enqueue { proc = Wait; _ } | Resume _ -> true
         | _ -> false)
       rep.requires_violations)

let test_double_release_harmless_at_impl_level () =
  (* Release without holding: REQUIRES is violated (caller bug) but the
     implementation must not crash the machine. *)
  let r, trace =
    Taos_threads.Api.run_traced ~seed:3 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
        in
        let m = S.mutex () in
        S.release m;
        S.release m;
        (* the mutex still functions afterwards *)
        S.with_lock m (fun () -> ()))
  in
  (match r.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "machine wedged");
  let rep =
    Threads_model.Conformance.check Spec_core.Threads_interface.final
      trace
  in
  Alcotest.(check int) "two caller violations" 2
    (List.length rep.Threads_model.Conformance.requires_violations)

let test_exception_during_wait_predicate () =
  (* An exception thrown between Wait returns: with_lock still releases,
     and other waiters are not poisoned. *)
  let r, trace =
    Taos_threads.Api.run_traced ~seed:4 (fun sync ->
        let module S =
          (val sync : Taos_threads.Sync_intf.SYNC with type thread = Tid.t)
        in
        let m = S.mutex () in
        let c = S.condition () in
        let flag = ref false in
        let fragile =
          S.fork (fun () ->
              try
                S.with_lock m (fun () ->
                    while not !flag do
                      S.wait m c
                    done;
                    failwith "predicate handler exploded")
              with Failure _ -> ())
        in
        let robust =
          S.fork (fun () ->
              S.with_lock m (fun () ->
                  while not !flag do
                    S.wait m c
                  done))
        in
        S.with_lock m (fun () -> flag := true);
        S.broadcast c;
        S.join fragile;
        S.join robust)
  in
  (match r.Firefly.Interleave.verdict with
  | Firefly.Interleave.Completed -> ()
  | _ -> Alcotest.fail "waiters poisoned by peer exception");
  Alcotest.(check bool) "conforms" true
    (Threads_model.Conformance.ok
       (Threads_model.Conformance.check
          Spec_core.Threads_interface.final trace))

let suite =
  ( "failure-injection",
    [
      Alcotest.test_case "orphaned lock wedges (why LOCK..END exists)" `Quick
        test_exception_in_critical_section_without_sugar;
      Alcotest.test_case "Wait without holding: caller blamed" `Quick
        test_wait_without_holding;
      Alcotest.test_case "double release contained" `Quick
        test_double_release_harmless_at_impl_level;
      Alcotest.test_case "exception after Wait contained" `Quick
        test_exception_during_wait_predicate;
    ] )
