module M = Firefly.Machine
module B = Threads_backend.Backend

(* Facade: run every applicable analyzer over one recorded execution and
   fold the results into a single report with deterministic, human-readable
   findings. *)

type report = {
  n_accesses : int;
  n_data_words : int;  (** distinct checked (data) words touched *)
  n_exempt_words : int;  (** registered synchronization/atomic words *)
  lockset : Lockset.race list;
  hb : Hb.race list;
  lock_order : Lockorder.report;
  lock_name : int -> string;
}

let is_data_kind = function
  | None | Some M.W_data -> true
  | Some (M.W_lock | M.W_sem | M.W_eventcount | M.W_atomic) -> false

(* The access log: a fold over the machine's [Ev_access] stream that
   numbers accesses in stream order. *)
type log = { mutable rev : M.access list; mutable count : int }

let log () = { rev = []; count = 0 }

let record log machine =
  M.subscribe machine M.K_access (function
    | M.Ev_access { tid; addr; kind; locks } ->
      log.rev <-
        { M.a_seq = log.count; a_tid = tid; a_addr = addr; a_kind = kind;
          a_locks = locks }
        :: log.rev;
      log.count <- log.count + 1
    | _ -> ())

let accesses log = List.rev log.rev

let of_run log machine =
  let accesses = accesses log in
  let word_kind = M.word_kind machine in
  let word_name = M.word_name machine in
  let data_words = Hashtbl.create 32 in
  List.iter
    (fun (a : M.access) ->
      match a.a_kind with
      | M.A_load | M.A_store | M.A_tas _ | M.A_clear | M.A_faa ->
        if is_data_kind (word_kind a.a_addr) then
          Hashtbl.replace data_words a.a_addr ()
      | _ -> ())
    accesses;
  let n_exempt =
    List.length
      (List.filter
         (fun (_, k, _) -> not (is_data_kind (Some k)))
         (M.registered_words machine))
  in
  {
    n_accesses = log.count;
    n_data_words = Hashtbl.length data_words;
    n_exempt_words = n_exempt;
    lockset = Lockset.check ~word_kind ~word_name accesses;
    hb = Hb.check ~word_kind ~word_name accesses;
    lock_order = Lockorder.of_accesses ~word_kind accesses;
    lock_name = M.lock_name machine;
  }

(* A mutex acquisition or release in a spec trace, as (thread, mutex,
   acquired): Acquire and the Resume actions of the waits take [m] (a
   TimedResume in both outcomes, as the abstraction function writes it);
   Release and the waits' Enqueue give it up. *)
let mutex_event ({ self; action } : Spec_trace.event) =
  match action with
  | Acquire { m } | Resume { m; _ } | AlertResume { m; _ } | TimedResume { m; _ } ->
    Some (self, m, true)
  | Release { m } | Enqueue { m; _ } -> Some (self, m, false)
  | Signal _ | Broadcast _ | P _ | V _ | Alert _ | TestAlert _ | AlertP _
  | TimedP _ ->
    None

(* A trace carries no memory accesses: no data words, no race checking —
   lock-order analysis only, each thread's events in its program order. *)
let of_trace trace =
  let events = List.filter_map mutex_event trace in
  {
    n_accesses = List.length events;
    n_data_words = 0;
    n_exempt_words = 0;
    lockset = [];
    hb = [];
    lock_order = Lockorder.of_lock_events events;
    lock_name = (fun id -> Printf.sprintf "lock#%d" id);
  }

type backend_result = { br_outcome : B.outcome; br_report : report }

let run_backend (b : B.t) ~seed workload =
  match b.B.instrument with
  | B.Machine_access f ->
    let log = log () in
    let outcome, machine = f ~observe:(record log) ~seed workload in
    { br_outcome = outcome; br_report = of_run log machine }
  | B.No_instrument ->
    let outcome = b.B.run ~seed workload in
    { br_outcome = outcome; br_report = of_trace outcome.B.trace }

let cycles r = r.lock_order.Lockorder.cycles
let clean r = r.lockset = [] && r.hb = [] && cycles r = []

let findings r =
  List.map (Format.asprintf "%a" Lockset.pp_race) r.lockset
  @ List.map (Format.asprintf "%a" Hb.pp_race) r.hb
  @ List.map
      (Format.asprintf "%a" (Lockorder.pp_cycle ~lock_name:r.lock_name))
      (cycles r)
