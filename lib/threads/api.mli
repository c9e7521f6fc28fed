(** Backend assembly: the Firefly-simulator implementation of
    {!Sync_intf.SYNC}, plus run helpers.

    Typical use:

    {[
      let report =
        Taos_threads.Api.run ~seed:42 (fun sync ->
            let module S = (val sync : Taos_threads.Sync_intf.SYNC
                              with type thread = Threads_util.Tid.t) in
            let m = S.mutex () in
            ...)
    ]} *)

type sync = (module Sync_intf.SYNC with type thread = Threads_util.Tid.t)

(** [make pkg] builds the simulator backend over a package instance and
    registers the package's ["pkg.alert"] chaos hook (the fault engine's
    alert storm).  Must be called from simulated thread context. *)
val make : Pkg.t -> sync

(** [run ?seed body] — create a machine, a package and the backend inside
    a root thread, then drive with the interleaving driver under
    [Sched.random seed] (default seed 0). *)
val run : ?seed:int -> (sync -> unit) -> Firefly.Interleave.report

(** [run_traced body] — {!run} with the spec-trace collector
    ({!Firefly.Record.trace}) subscribed to the machine; returns the
    report and the run's linearized actions, in order. *)
val run_traced :
  ?seed:int ->
  (sync -> unit) ->
  Firefly.Interleave.report * Spec_trace.event list

(** [run_timed ~processors body] — same, driven by the cycle-accurate
    timed driver. *)
val run_timed :
  processors:int ->
  ?fast_path:bool ->
  ?seed:int ->
  (sync -> unit) ->
  Firefly.Timed.report

(** [build ?fast_path body machine] — spawn the root thread on an existing
    machine (for {!Firefly.Explore}). *)
val build : ?fast_path:bool -> (sync -> unit) -> Firefly.Machine.t -> unit
