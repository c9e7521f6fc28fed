(** Model-checking scenarios shared by experiments and tests. *)

open Spec_core
module P = Threads_model.Program

(* n threads contend for one mutex; mutual exclusion must hold. *)
let mutex_contention n =
  let prog = [ P.call "Acquire" [ P.Aobj "m" ]; P.call "Release" [ P.Aobj "m" ] ] in
  P.make
    ~name:(Printf.sprintf "%d threads, one mutex" n)
    ~objects:[ ("m", Sort.Thread) ]
    ~programs:(List.init n (fun _ -> prog))
    ~invariants:
      [ P.mutual_exclusion ~regions:(List.init n (fun i -> (i, 0, 1, []))) ]
    ()

(* Producer/consumer handshake at the spec level: the consumer waits, the
   producer signals; deadlock is allowed because the spec's Signal may
   legally wake nobody (no liveness properties). *)
let wait_signal n_waiters =
  let waiter =
    [
      P.call "Acquire" [ P.Aobj "m" ];
      P.call "Wait" [ P.Aobj "m"; P.Aobj "c" ];
      P.call "Release" [ P.Aobj "m" ];
    ]
  in
  let signaller =
    [
      P.call "Acquire" [ P.Aobj "m" ];
      P.call "Release" [ P.Aobj "m" ];
      P.call "Broadcast" [ P.Aobj "c" ];
    ]
  in
  P.make
    ~name:(Printf.sprintf "%d waiters + broadcast" n_waiters)
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:(List.init n_waiters (fun _ -> waiter) @ [ signaller ])
    ~invariants:
      [
        ( P.Stale_waiter,
          fun view ->
            (* Nobody may hold the mutex while a thread mid-Resume holds it
               too; covered by sort-level checks — here we check c only
               ever contains waiter threads. *)
            let members = Value.as_set (P.value view "c") in
            if Threads_util.Tid.Set.exists (fun t -> t > n_waiters) members
            then Some "non-waiter thread appears in c"
            else None );
      ]
    ~allow_deadlock:true ()

(* Incident 1 (E7a): without the m = NIL guard on AlertResume's RAISES
   case, an alerted waiter can seize the mutex while another thread is in
   its critical section. *)
let alert_wait_mutual_exclusion () =
  P.make ~name:"AlertWait vs mutual exclusion"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [
          P.call "Acquire" [ P.Aobj "m" ];
          P.call "AlertWait" [ P.Aobj "m"; P.Aobj "c" ];
          P.call "Release" [ P.Aobj "m" ];
        ];
        [ P.call "Acquire" [ P.Aobj "m" ]; P.call "Release" [ P.Aobj "m" ] ];
        [ P.call "Alert" [ P.Athread 0 ] ];
      ]
    ~invariants:
      [ P.mutual_exclusion ~regions:[ (0, 0, 2, [ 1 ]); (1, 0, 1, []) ] ]
    ~allow_deadlock:true ()

(* Incident 3 (E7c): Nelson's bug — UNCHANGED [c] on the Alerted case
   leaves the departed thread in c. *)
let nelson () =
  P.make ~name:"Nelson's bug"
    ~objects:[ ("m", Sort.Thread); ("c", Sort.Thread_set) ]
    ~programs:
      [
        [
          P.call "Acquire" [ P.Aobj "m" ];
          P.call "AlertWait" [ P.Aobj "m"; P.Aobj "c" ];
          P.call "Release" [ P.Aobj "m" ];
        ];
        [ P.call "Alert" [ P.Athread 0 ] ];
      ]
    ~invariants:[ P.no_stale_waiters ~c:"c" ~waits:[ (0, 1) ] ]
    ~allow_deadlock:true ()

(* Semaphores at the spec level: P/V with no holder notion. *)
let semaphore_pingpong () =
  P.make ~name:"P/V ping-pong"
    ~objects:[ ("s", Sort.Semaphore) ]
    ~programs:
      [
        [ P.call "P" [ P.Aobj "s" ]; P.call "V" [ P.Aobj "s" ] ];
        [ P.call "P" [ P.Aobj "s" ]; P.call "V" [ P.Aobj "s" ] ];
      ]
    ()

let progcheck_catalogue () =
  [ mutex_contention 2; wait_signal 1; alert_wait_mutual_exclusion ();
    nelson (); semaphore_pingpong () ]
