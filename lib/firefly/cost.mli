(** Instruction-cost model of the simulated multiprocessor.

    Calibration: the paper reports that an uncontended Acquire/Release pair
    runs in 5 MicroVAX II instructions and 10 microseconds, i.e. roughly
    2 μs per instruction on that machine.  We charge cycles per simulated
    memory instruction and convert with {!us_per_cycle}; interlocked
    operations (test-and-set, fetch-and-add) are costlier than plain
    loads/stores, as on the real bus. *)

type t = {
  read : int;
  write : int;
  tas : int;  (** interlocked test-and-set *)
  faa : int;  (** interlocked fetch-and-add *)
  context_switch : int;  (** charged by the timed driver on reschedule *)
  time_slice : int;  (** preemption quantum, in cycles *)
}

(** MicroVAX-II-flavoured defaults: read/write 1 cycle, interlocked ops
    3 cycles, context switch 50 cycles, 10000-cycle time slice. *)
val default : t

(** Microseconds per cycle under the calibration above (2.0). *)
val us_per_cycle : float
