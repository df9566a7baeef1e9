(** Delta filter-set transitions.

    A selection revolution (or a drift-triggered re-scope) changes the
    stored filter set from [current] to [target].  The blunt way is a
    cold swap: remove what is no longer selected, fetch every new
    filter's initial content from scratch.  Containment (Props 1–3)
    does better: a new filter contained in a stored one can be seeded
    entirely from local content and opened as a degraded-resync
    re-scope of the donor's session; one that merely overlaps stored
    content can be seeded with the overlap and Merkle-reconciled, so
    only the net-new region crosses the wire.  Removed-only regions
    become local deletes — they never touch the network.

    {!plan} computes the classification; {!apply} executes it through
    {!Ldap_replication.Filter_replica}'s delta installs, installs
    before removals so donors survive long enough to be read. *)

open Ldap

(** How one target filter will be brought in. *)
type step =
  | Keep of Query.t  (** Already stored: retained, no traffic. *)
  | Rescope of { query : Query.t; donor : Query.t }
      (** Contained in stored [donor]: seed locally, resume degraded
          from the donor's acknowledged CSN. *)
  | Seed of { query : Query.t; donors : Query.t list }
      (** Overlaps the [donors]: seed the overlap, Merkle-reconcile
          the rest. *)
  | Fetch of Query.t  (** No usable overlap: cold initial fetch. *)

type plan = { steps : step list; removes : Query.t list }

val plan : Schema.t -> current:Query.t list -> target:Query.t list -> plan
(** Classifies every target query against the current stored set
    (first containing donor wins; overlap donors are pre-filtered by a
    cheap region/filter-disjointness test that is harmless to get
    wrong) and lists the stored queries the target drops. *)

(** What actually happened when a plan ran: installs by outcome (a
    planned rescope/seed may degrade to [cold] when its preconditions
    fail at execution time), removals, and failed installs. *)
type report = {
  kept : int;
  rescoped : int;
  seeded : int;
  cold : int;
  removed : int;
  failed : int;
}

val empty_report : report
(** All counters zero. *)

val add_report : report -> report -> report
(** Counter-wise sum, for run totals. *)

val apply : Ldap_replication.Filter_replica.t -> plan -> report
(** Executes the plan with delta installs
    ({!Ldap_replication.Filter_replica.install_filter_rescoped} /
    [install_filter_seeded]), installs first, removals last. *)

val apply_fetch : Ldap_replication.Filter_replica.t -> plan -> report
(** Executes the plan as the section 6.2 replica does, knowing no
    containment-seeded installs: [Keep] regions stay, every other
    target query is fetched from scratch, installs first, removals
    last. *)

val apply_cold : Ldap_replication.Filter_replica.t -> plan -> report
(** Executes the same plan as a blunt remove+install swap: the whole
    current set is torn down — [Keep] regions included — and every
    target query is fetched from scratch.  This is what a
    non-delta-aware replica does on re-selection; the baseline the
    drift sweep's transition-byte gate compares {!apply} against. *)

val report_to_string : report -> string
