(** Discrete-event engine: one virtual clock, one event queue, one seeded
    random stream for latency draws.

    Determinism rule: for a given seed and an identical sequence of
    [schedule]/[after]/[draw] calls, a run executes the same events at
    the same virtual times in the same order.  Events at equal times
    fire in scheduling order ({!Event}'s per-tick buckets are FIFO), so
    callers never depend on queue internals.  An event is
    never removed: a caller that wants one silenced makes its thunk a
    no-op (the topology's poll loops check a generation number), so it
    still takes its place in that order.  Events run under {!run} (to
    quiescence) or {!run_until} (to a time bound).

    Every [Ldap.Network] owns one engine: each exchange leg, retry
    timer and persist push of the network is an event on it. *)

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

val draw : t -> Latency.t -> int
(** Sample a latency distribution using the engine's stream: a delay
    in ticks, never negative.  A [Uniform] or [Exponential] draw takes
    one roll from the stream, a [Zero] or [Fixed] one none.  Allocates
    nothing. *)

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
