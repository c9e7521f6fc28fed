module Tid = Threads_util.Tid
module Ops = Firefly.Machine.Ops
module Probe = Firefly.Machine.Probe

type t = {
  mutable pending : Tid.Set.t;
  cancels : (Tid.t, unit -> unit) Hashtbl.t;
  woken : (Tid.t, unit) Hashtbl.t;
  sent : (Tid.t, int) Hashtbl.t;
      (* cycle timestamp of the (latest) Alert per target, for the
         delivery-latency histogram *)
}

let create () =
  {
    pending = Tid.Set.empty;
    cancels = Hashtbl.create 8;
    woken = Hashtbl.create 8;
    sent = Hashtbl.create 8;
  }

(* Delivery = the alertee's Raises / TestAlert-true action consuming the
   pending flag; sampled from the cycle the Alert linearized. *)
let note_delivered t tid =
  match Hashtbl.find_opt t.sent tid with
  | Some t0 ->
    Hashtbl.remove t.sent tid;
    Probe.counter "alerts.delivered" 1;
    Probe.sample "alerts.delivery_cycles" (Probe.now () - t0)
  | None -> ()

let alert_obs = Some (Spinlock.obs "alert")

let alert t ~lock ~self ~target =
  Spinlock.acquire ?obs:alert_obs lock;
  ignore
    (Ops.mem_emit Firefly.Machine.M_none (fun _ ->
         t.pending <- Tid.Set.add target t.pending;
         Probe.counter "alerts.sent" 1;
         Hashtbl.replace t.sent target (Probe.now ());
         if Probe.tracing () then Probe.emit { self; action = Alert { t = target } }));
  (match Hashtbl.find_opt t.cancels target with
  | Some cancel ->
    Hashtbl.remove t.cancels target;
    Hashtbl.replace t.woken target ();
    cancel ()
  | None -> ());
  Spinlock.release lock

let test_alert t ~self =
  let was = ref false in
  ignore
    (Ops.mem_emit Firefly.Machine.M_none (fun _ ->
         was := Tid.Set.mem self t.pending;
         t.pending <- Tid.Set.remove self t.pending;
         if !was then note_delivered t self;
         if Probe.tracing () then
           Probe.emit { self; action = TestAlert { result = !was } }));
  !was

let pending t tid = Tid.Set.mem tid t.pending

let consume_pending t tid =
  t.pending <- Tid.Set.remove tid t.pending;
  note_delivered t tid

let register t tid cancel = Hashtbl.replace t.cancels tid cancel
let unregister t tid = Hashtbl.remove t.cancels tid

let take_woken_by_alert t tid =
  if Hashtbl.mem t.woken tid then begin
    Hashtbl.remove t.woken tid;
    true
  end
  else false
