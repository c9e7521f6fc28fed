(** FIFO queues of blocked threads with arbitrary removal (for alert
    cancellation).  These model the Nub's queues; they are plain OCaml
    state because they are only touched under the global spin-lock (or
    inside a single atomic simulator step), never concurrently.  The
    simulated packages queue thread ids, the hardware package its thread
    records; {!remove} and {!mem} compare by physical equality. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

(** [push q t] appends at the tail. *)
val push : 'a t -> 'a -> unit

(** [pop q] removes and returns the head, if any. *)
val pop : 'a t -> 'a option

(** [pop_all q] removes and returns everything, head first. *)
val pop_all : 'a t -> 'a list

(** [remove q t] removes [t] wherever it is; returns whether it was
    present. *)
val remove : 'a t -> 'a -> bool

val mem : 'a t -> 'a -> bool
val elements : 'a t -> 'a list
