(** Discrete-event engine: one virtual clock, one event queue, one seeded
    random stream for latency draws.

    Determinism rule: for a given seed and an identical sequence of
    [schedule]/[after]/[every]/[draw] calls, a run executes the same
    events at the same virtual times in the same order.  Events at equal
    times fire in scheduling order (ties broken by a per-engine sequence
    number), so callers never depend on heap internals. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine at time 0.  [seed] (default 0) seeds the splitmix64
    stream used by [draw]. *)

val now : t -> int
(** Current virtual time. *)

val schedule : t -> time:int -> (unit -> unit) -> unit
(** Schedule a thunk at an absolute virtual time.  Raises
    [Invalid_argument] if [time] is in the past. *)

val after : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a thunk [delay] ticks from now.  Negative delays clamp
    to zero. *)

val every : t -> every:int -> until:int -> (unit -> unit) -> unit
(** Periodic event: run the thunk now + [every], then every [every]
    ticks, stopping once the next occurrence would fall after [until].
    The bound keeps run-to-quiescence terminating.  Raises
    [Invalid_argument] if [every <= 0]. *)

type handle
(** A cancellation handle on a scheduled event.  Cancelling does not
    remove the queue entry — it fires as a no-op — so timing and
    ordering of the remaining events are unchanged (the determinism
    rule holds with or without cancellations). *)

val cancel : handle -> unit
(** Marks the event cancelled: when its time comes, nothing runs.  For
    a periodic event the whole series stops.  Idempotent. *)

val cancelled : handle -> bool
(** Whether {!cancel} was called. *)

val schedule_cancellable : t -> time:int -> (unit -> unit) -> handle
(** {!schedule} returning a cancellation handle — how a simulated
    crash silences a node's pending activity. *)

val after_cancellable : t -> delay:int -> (unit -> unit) -> handle
(** {!after} returning a cancellation handle. *)

val every_cancellable : t -> every:int -> until:int -> (unit -> unit) -> handle
(** {!every} returning one handle for the whole periodic series —
    cancelling stops all future occurrences (the way a crashed
    replica's poll loop dies with it). *)

val draw : t -> Latency.t -> int
(** Sample a latency distribution using the engine's stream. *)

val step : t -> bool
(** Run the single earliest pending event, advancing the clock to its
    time.  Returns [false] when the queue is empty. *)

val run : t -> unit
(** Run events until the queue is empty (quiescence).  Raises
    [Invalid_argument] if called re-entrantly from inside an event. *)

val run_until : t -> time:int -> unit
(** Run all events scheduled at or before [time], then advance the
    clock to exactly [time].  Same re-entrancy rule as [run]. *)

val running : t -> bool
(** [true] while [run]/[run_until] is executing events — how a
    synchronous caller knows it must complete its work inline instead
    of re-entering the loop. *)

val pending : t -> int
(** Number of events currently queued. *)
