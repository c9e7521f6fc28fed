module Ops = Firefly.Machine.Ops
module Tid = Threads_util.Tid

type sync = (module Sync_intf.SYNC with type thread = Tid.t)

let make pkg : sync =
  (module struct
    type mutex = Mutex.t
    type condition = Condition.t
    type semaphore = Mutex.t
    type thread = Tid.t

    let mutex () = Mutex.create pkg
    let condition () = Condition.create pkg
    let semaphore () = Mutex.semaphore pkg
    let acquire = Mutex.acquire
    let release = Mutex.release
    let with_lock = Mutex.with_lock
    let wait m c = Condition.wait c m
    let signal = Condition.signal
    let broadcast = Condition.broadcast
    let p = Mutex.p
    let v = Mutex.v
    let timed_wait m c ~timeout = Condition.timed_wait c m ~timeout
    let timed_p = Mutex.timed_p

    let alert target =
      Alerts.alert pkg.Pkg.alerts ~lock:pkg.Pkg.lock ~self:(Ops.self ())
        ~target

    (* Chaos hook: an alert storm targets thread [n] with a real
       package-level Alert, exercising the cancellation paths. *)
    let () = Firefly.Machine.Probe.register_chaos "pkg.alert" alert
    let test_alert () = Alerts.test_alert pkg.Pkg.alerts ~self:(Ops.self ())
    let alert_wait m c = Condition.alert_wait c m
    let alert_p = Mutex.alert_p
    let self () = Ops.self ()
    let fork f = Ops.spawn f
    let join = Ops.join
    let yield = Ops.yield
  end)

let build ?fast_path body machine =
  ignore
    (Firefly.Machine.spawn_root machine (fun () ->
         body (make (Pkg.create ?fast_path ()))))

let run ?(seed = 0) body =
  Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed) (build body)

let run_traced ?(seed = 0) body =
  let sink = Spec_trace.Sink.create () in
  let report =
    Firefly.Interleave.run ~strategy:(Firefly.Sched.random seed)
      (fun machine ->
        Firefly.Record.trace sink machine;
        build body machine)
  in
  (report, Spec_trace.Sink.events sink)

let run_timed ~processors ?fast_path ?seed body =
  Firefly.Timed.run ~processors ?seed (build ?fast_path body)
