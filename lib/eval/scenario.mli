(** Shared experiment machinery: master setup, static filter selection,
    subtree selection, and the query/update drive loop used by every
    figure reproduction. *)

open Ldap
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Selection = Ldap_selection
module Resync = Ldap_resync

type t = {
  enterprise : Dirgen.Enterprise.t;
  master : Resync.Master.t;
}

val setup : ?config:Dirgen.Enterprise.config -> unit -> t
(** Builds the directory ([Enterprise.default_config] by default) and
    a master over its backend. *)

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
  rules:Selection.Generalize.rule list ->
  train:Dirgen.Workload.item array ->
  budget:int ->
  Query.t list
(** Generalizes every training query, ranks candidates by benefit/size
    and greedily fills the entry budget — the static configuration of
    section 6 used when dynamic selection is off.  [max_filters] caps
    the number of selected filters (for the figure 8/9 sweeps over
    filter counts); [min_hits] prunes cold candidates (default 2). *)

val choose_subtrees :
  t ->
  roots:Dn.t array ->
  train:Dirgen.Workload.item array ->
  budget:int ->
  Dn.t list
(** Greedy subtree selection: candidate roots ranked by
    (training accesses whose scoped base falls under the root) /
    (entries in the subtree), filled under the entry budget. *)

val subtree_size : t -> Dn.t -> int

type drive = {
  queries_between_syncs : int;  (** 0 disables periodic syncs. *)
  updates_per_query : float;  (** Master update-stream interleave rate. *)
}

val no_updates : drive
(** No periodic syncs and no interleaved updates. *)

val drive_filter :
  t ->
  Replication.Filter_replica.t ->
  ?selector:Selection.Selector.t ->
  ?stream:Dirgen.Update_stream.t ->
  ?cache_misses:bool ->
  drive ->
  Dirgen.Workload.item array ->
  unit
(** Runs the workload against a filter replica: root-based queries,
    misses answered by the master (and optionally cached), interleaved
    updates and periodic syncs, selector observation per query. *)

val drive_subtree :
  t ->
  Replication.Subtree_replica.t ->
  ?stream:Dirgen.Update_stream.t ->
  drive ->
  Dirgen.Workload.item array ->
  unit
(** Runs the workload against a subtree replica using the {e scoped}
    query form (the generous assumption for the baseline). *)
