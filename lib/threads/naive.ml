module Ops = Firefly.Machine.Ops
module Probe = Firefly.Machine.Probe

type t = {
  sem : Mutex.t;
  nwaiters : int;  (* addr: waiters registered before releasing the mutex *)
}

let create pkg =
  let sem = Mutex.semaphore pkg in
  (* A condition's semaphore must start unavailable so P blocks until a
     Signal's V. *)
  Mutex.p sem;
  let nwaiters = Ops.alloc 1 in
  (* Deliberately registered as plain data, not W_atomic: the decrement in
     [wait] runs outside the mutex, and the lockset analyzer should see
     that — it is part of what is broken about this design. *)
  Probe.register_word nwaiters Firefly.Machine.W_data
    (Printf.sprintf "naive-cond#%d.nwaiters" (Mutex.id sem));
  { sem; nwaiters }

let wait t m =
  ignore (Ops.faa t.nwaiters 1);
  Mutex.release m;
  Mutex.p t.sem;
  ignore (Ops.faa t.nwaiters (-1));
  Mutex.acquire m

let signal t = Mutex.v t.sem

let broadcast t =
  (* One V per waiter seen now; Vs on an already-available binary semaphore
     coalesce, so this loses wakeups — the paper's impossibility argument
     made operational. *)
  let n = Ops.read t.nwaiters in
  for _ = 1 to n do
    Mutex.v t.sem
  done
