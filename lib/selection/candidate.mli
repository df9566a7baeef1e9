(** Candidate-filter statistics (section 6.2).

    For every generalized filter derived from the observed workload the
    table tracks the number of hits since the last revolution (the
    {e benefit}) and a cached size estimate (entries matching at the
    master).  Benefit-to-size ratios drive the periodic selection. *)

open Ldap

type stats = { mutable hits : int; mutable size : int option }

type t

val create : unit -> t
(** An empty candidate table. *)

val observe : t -> Query.t -> unit
(** Bump the hit count of a candidate (registering it first if new). *)

val size_of : t -> Query.t -> estimate:(Query.t -> int) -> int
(** Size estimate, computed once through [estimate] then cached. *)

val reset_hits : t -> unit
(** Start of a new revolution interval. *)

val invalidate_sizes : t -> unit
(** Drops every cached size estimate, forcing the next {!size_of} (or
    {!ranked}) to re-ask the estimator.  Called at each revolution:
    without it, benefit/size ranking keeps pricing candidates at
    whatever the directory looked like when they were first observed,
    and drifts as it churns. *)

val count : t -> int
(** Candidates registered so far, keyed by canonical base, scope and
    normalized filter. *)

val ranked : t -> estimate:(Query.t -> int) -> (Query.t * stats * float) list
(** Candidates with their benefit/size ratio, best first.  Candidates
    with zero hits are included (ratio 0) so callers can prune. *)
