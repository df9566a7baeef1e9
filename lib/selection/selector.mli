(** Periodic benefit/size filter selection (section 6.2).

    The paper's simplification of the evolutions/revolutions of
    Kapitskaia et al. [12]: hit statistics are maintained for candidate
    (generalized) filters and, every [revolution_interval] queries, the
    stored filter set is re-chosen greedily by benefit-to-size ratio
    under a replica size budget.  Between revolutions the stored set is
    untouched, which keeps update traffic low — the trade-off Figures
    5 and 7 sweep via the interval R. *)

open Ldap

type config = {
  rules : Generalize.rule list;  (** How to generalize observed queries. *)
  revolution_interval : int;  (** R: queries between revolutions. *)
  size_budget : int;  (** Max total replicated entries. *)
  min_hits : int;  (** Candidates below this benefit are ignored. *)
  include_queries : bool;  (** Also treat each observed query itself as
                               a candidate — useful when single results
                               (e.g. department entries) are worthwhile
                               replication units. *)
}

type t

val create : config -> Ldap_replication.Filter_replica.t -> t
(** A selector with no statistics yet; it drives the given replica's
    stored filter set and asks its upstream for size estimates. *)

val observe : t -> Query.t -> unit
(** Feed one user query: candidate statistics are updated and, at
    every [revolution_interval]-th call, a revolution re-selects the
    stored filters. *)

val force_revolution : t -> unit

val schedule_revolutions : t -> Ldap_sim.Engine.t -> every:int -> until:int -> unit
(** Registers revolutions as periodic clock events: every [every]
    virtual ticks up to [until] a revolution re-selects the stored
    filters and resets the query-count trigger, turning the interval R
    into an actual period of virtual time rather than a query count. *)

val revolutions : t -> int

val install_static : Ldap_replication.Filter_replica.t -> Query.t list -> (unit, string) result
(** Statically configure a filter set (no dynamic selection) — used
    for query types whose generalized filters are too large to swap
    dynamically, like the serialNumber blocks of section 7.3. *)
