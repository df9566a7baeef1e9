(** Pending-event priority queue.

    Events are ordered by [(time, seq)]: earliest time first, and among
    events scheduled for the same tick, the one added first.  The total
    order makes engine runs deterministic for a given seed and
    schedule.

    The queue is a ring of per-tick FIFO buckets covering a fixed
    window of ticks from its base, the time of the last event popped;
    adding or popping an event there is O(1) and allocates nothing
    (the bucket-node pool grows by doubling when full).  Events
    scheduled past the window wait in a binary heap ordered by
    [(time, seq)] and move into their bucket as soon as popping
    advances the base far enough for their tick to enter the window,
    which keeps each bucket in scheduling order.  Only {!pop} moves
    the base; {!min_time} leaves it where it is, so an engine whose
    clock stops short of the next event can still schedule anything
    from its clock on. *)

type t

val create : unit -> t
(** An empty queue, based at time 0. *)

val add : t -> time:int -> (unit -> unit) -> unit
(** [add q ~time run] inserts the event [run] at [time], after every
    event already pending at [time].  Raises [Invalid_argument] if
    [time] is before the last popped event's time. *)

val is_empty : t -> bool
(** Whether no event is pending. *)

val min_time : t -> int
(** Time of the earliest pending event, which stays queued.  Raises
    [Invalid_argument] on an empty queue. *)

val pop : t -> (unit -> unit)
(** Removes the earliest pending event and returns its thunk; its time
    is the {!min_time} read just before.  Raises [Invalid_argument] on
    an empty queue. *)
