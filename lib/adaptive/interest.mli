(** Windowed, exponentially-decayed per-candidate benefit.

    The hit counters of {!Ldap_selection.Candidate} measure benefit
    since the last revolution — fine for a stable workload, blind to a
    shifting one: a candidate that was hot an hour ago and is dead now
    keeps outranking the flash crowd until enough revolutions wash it
    out.  This tracker replaces the counter with a decayed score: each
    observation adds its weight, and every score halves per
    [half_life] elapsed observations.  Decay is applied lazily on
    read, so cost is O(1) per observation and O(candidates) per
    ranking.

    The clock is the observation count, never wall time — rankings are
    deterministic for a given workload, which the drift sweep's CI
    double-run diff relies on. *)

open Ldap

type t

val create : ?half_life:int -> unit -> t
(** [half_life] (default 256) is the number of observations over which
    an untouched score halves.
    @raise Invalid_argument when [half_life <= 0]. *)

val observe : ?weight:float -> t -> Query.t -> unit
(** Advances the clock one tick and credits [weight] (default 1.0) to
    the query's decayed score, registering it first if new. *)

val touch : t -> unit
(** Advances the clock one tick without crediting any candidate —
    ages the whole table, used for queries that produce no
    candidates. *)

val score : t -> Query.t -> float
(** The query's decayed score as of now; 0.0 if never observed. *)

val ranked : t -> (Query.t * float) list
(** All candidates with their decayed scores, best first; ties broken
    by canonical query string so the order is deterministic. *)

val prune : t -> below:float -> int
(** Drops candidates whose decayed score has fallen below the
    threshold; returns how many were dropped.  Keeps the table O(live
    interest) instead of O(everything ever observed). *)

val count : t -> int
(** Candidates currently tracked. *)
