(** Pending-event priority queue.

    Events are ordered by [(time, seq)]: earliest time first, and among
    events scheduled for the same tick, lowest sequence number (i.e.
    scheduling order) first.  The total order makes engine runs
    deterministic for a given seed and schedule.  Adding and popping
    allocate nothing (the queue grows by doubling when full). *)

type t

val create : unit -> t
(** An empty queue. *)

val add : t -> time:int -> seq:int -> (unit -> unit) -> unit
(** [add q ~time ~seq run] inserts the event [run] at [(time, seq)]. *)

val is_empty : t -> bool
(** Whether no event is pending. *)

val min_time : t -> int
(** Time of the earliest pending event, which stays queued.  Raises
    [Invalid_argument] on an empty queue. *)

val pop : t -> (unit -> unit)
(** Removes the earliest pending event and returns its thunk; its time
    is the {!min_time} read just before.  Raises [Invalid_argument] on
    an empty queue. *)
