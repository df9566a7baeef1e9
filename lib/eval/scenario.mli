(** Shared experiment machinery: master setup, static filter selection,
    subtree selection, and the query/update drive loop used by every
    figure reproduction. *)

open Ldap
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Resync = Ldap_resync

type t = {
  enterprise : Dirgen.Enterprise.t;
  master : Resync.Master.t;
  net : Network.t;
      (** The scenario's one network: every exchange of every replica
          and consumer built over {!field-transport} is an event on its
          engine, so all of them are ordered on one clock. *)
  transport : Resync.Transport.t;
      (** The ReSync transport over [net], with [master] registered at
          {!master_host} and no fault schedule. *)
}

val master_host : string
(** The host name the scenario's master is registered under
    (["master"]). *)

val setup : ?config:Dirgen.Enterprise.config -> unit -> t
(** Builds the directory ([Enterprise.default_config] by default), a
    master over its backend, and the scenario's network and transport
    with that master registered at {!master_host}. *)

val replica : t -> Replication.Filter_replica.t
(** A filter replica over the scenario's transport, synchronizing from
    its master and caching no user queries
    ({!Replication.Filter_replica.create_over}). *)

(** {1 Department fleets}

    The replica fleet every topology sweep and [ldapctl] subcommand
    builds: one [(departmentNumber=d)] query per department, split
    over a tier of interior nodes, and leaves subscribing them
    round-robin. *)

val dept_query : Dirgen.Enterprise.t -> string -> Query.t
(** [(departmentNumber=<number>)] based at the directory root. *)

type fleet = {
  queries : Query.t array;
      (** One department query per filter, in directory order. *)
  covers : Query.t list array;
      (** Per interior node [k]: the queries whose index is [k] modulo
          the node count. *)
}

val fleet : ?nodes:int -> ?filters:int -> Dirgen.Enterprise.t -> fleet
(** The first [filters] departments (default: all of them) split over
    [nodes] interior nodes (default 1, capped at the filter count), so
    [covers.(0)] of a one-node fleet is every query. *)

val leaf_slot : fleet -> int -> int * int
(** Leaf [i]'s filter index ([i] modulo the filter count) and the
    node whose covers hold that filter. *)

val leaf_queries : fleet -> int -> Query.t list
(** The queries of leaves [0 .. n-1], round-robin over the filters. *)

val select_static :
  ?max_filters:int ->
  ?min_hits:int ->
  t ->
  rules:Ldap_selection.Generalize.rule list ->
  train:Dirgen.Workload.item array ->
  budget:int ->
  Query.t list
(** Generalizes every training query, ranks candidates by benefit/size
    and greedily fills the entry budget — the static configuration of
    section 6 used when dynamic selection is off.  [max_filters] caps
    the number of selected filters (for the figure 8/9 sweeps over
    filter counts); [min_hits] prunes cold candidates (default 2).
    The ranking and fill are {!Ldap_adaptive.Controller.select}'s under
    the [Hits] benefit. *)

val install_static :
  Replication.Filter_replica.t -> Query.t list -> (unit, string) result
(** Statically configures a filter set (no dynamic selection), in
    order, stopping at the first failed install — used for query types
    whose generalized filters are too large to swap dynamically, like
    the serialNumber blocks of section 7.3. *)

val choose_subtrees :
  t ->
  roots:Dn.t array ->
  train:Dirgen.Workload.item array ->
  budget:int ->
  Dn.t list
(** Greedy subtree selection: candidate roots ranked by
    (training accesses whose scoped base falls under the root) /
    (entries in the subtree), filled under the entry budget. *)

type drive = {
  queries_between_syncs : int;  (** 0 disables periodic syncs. *)
  updates_per_query : float;  (** Master update-stream interleave rate. *)
}

val no_updates : drive
(** No periodic syncs and no interleaved updates. *)

val drive_filter :
  t ->
  Replication.Filter_replica.t ->
  ?controller:Ldap_adaptive.Controller.t ->
  ?stream:Dirgen.Update_stream.t ->
  ?cache_misses:bool ->
  drive ->
  Dirgen.Workload.item array ->
  unit
(** Runs the workload against a filter replica: root-based queries,
    misses answered by the master (and optionally cached), interleaved
    updates and periodic syncs, controller observation per query
    (before the query is answered). *)

val drive_subtree :
  t ->
  Replication.Subtree_replica.t ->
  ?stream:Dirgen.Update_stream.t ->
  drive ->
  Dirgen.Workload.item array ->
  unit
(** Runs the workload against a subtree replica using the {e scoped}
    query form (the generous assumption for the baseline). *)
