(* The Threads package on real hardware (Threads_multicore.Multicore.Sync,
   the paper's SYNC interface), in the arms the benchmark times: the
   uncontended fast path, the same loop on Stdlib.Mutex for reference,
   D domains contending for one mutex, and a condition-variable
   ping-pong between two domains.  Every arm checks its own result. *)

module S = Threads_multicore.Multicore.Sync

(* No run uses more domains than the host has cores. *)
let domains = min 2 (Domain.recommended_domain_count ())

(* [uncontended ~pairs] — one domain, [pairs] Acquire/Release pairs around
   a counter increment.  Returns whether the counter reached [pairs]. *)
let uncontended ~pairs =
  let m = S.mutex () in
  let counter = ref 0 in
  for _ = 1 to pairs do
    S.acquire m;
    incr counter;
    S.release m
  done;
  !counter = pairs

let stdlib ~pairs =
  let m = Mutex.create () in
  let counter = ref 0 in
  for _ = 1 to pairs do
    Mutex.lock m;
    incr counter;
    Mutex.unlock m
  done;
  !counter = pairs

(* [contended ~pairs] — [domains] threads each run [pairs] pairs on one
   mutex; the shared counter must equal [domains * pairs]. *)
let contended ~pairs =
  let m = S.mutex () in
  let counter = ref 0 in
  let body () =
    for _ = 1 to pairs do
      S.acquire m;
      incr counter;
      S.release m
    done
  in
  let others = List.init (domains - 1) (fun _ -> S.fork body) in
  body ();
  List.iter S.join others;
  !counter = domains * pairs

(* [handoff ~rounds] — the main thread and a partner domain take turns
   through one mutex and condition: each round is two hand-offs.  [turn]
   counts hand-offs, so each side checks it resumed on exactly the value
   it waited for: the turns alternate.  Each hand-off records the ns from
   the Signal to the woken side holding the mutex again; the array is
   returned for percentiles. *)
let handoff ~rounds =
  let m = S.mutex () and c = S.condition () in
  let turn = ref 0 in
  let n = 2 * rounds in
  let sent = Array.make n 0 and seen = Array.make n 0 in
  let alternated = Atomic.make true in
  let pass ~i ~wait_for =
    S.acquire m;
    while !turn < wait_for do
      S.wait m c
    done;
    if !turn <> wait_for then Atomic.set alternated false;
    if i > 0 then seen.(i - 1) <- Span.now_ns ();
    turn := wait_for + 1;
    sent.(i) <- Span.now_ns ();
    S.signal c;
    S.release m
  in
  let partner =
    S.fork (fun () ->
        for r = 0 to rounds - 1 do
          pass ~i:((2 * r) + 1) ~wait_for:((2 * r) + 1)
        done)
  in
  for r = 0 to rounds - 1 do
    pass ~i:(2 * r) ~wait_for:(2 * r)
  done;
  S.acquire m;
  while !turn < 2 * rounds do
    S.wait m c
  done;
  seen.(n - 1) <- Span.now_ns ();
  S.release m;
  S.join partner;
  let latencies = Array.init n (fun i -> seen.(i) - sent.(i)) in
  (Atomic.get alternated && !turn = 2 * rounds, latencies)

(* Set-up only: process start, package initialization and the first
   mutex — what a client pays before its first Acquire. *)
let setup () = Threads_multicore.Multicore.run (fun () -> ignore (S.mutex ()))
