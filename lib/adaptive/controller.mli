(** Filter selection: the one engine behind every re-selection.

    Every observed user query credits the {!Interest} table (itself
    and its section 6.1 generalizations), and the stored filter set is
    re-chosen greedily by benefit/size ratio under a size budget.
    Periodic re-selection every [revolution_interval] observations is
    the section 6.2 revolution, the paper's simplification of
    Kapitskaia et al. [12].  The controller can also re-select early,
    whenever the drift trigger fires: some uncovered candidate's score
    dominating everything the stored set covers means the workload has
    moved (flash crowd, geography flip) and waiting for the next
    revolution just accumulates misses.
    Transitions execute as containment-seeded deltas
    ({!Transition.apply}), as the paper's keep-and-fetch
    ({!Transition.apply_fetch}) or, for the baseline the drift sweep
    compares against, as cold swaps. *)

open Ldap

(** How filter-set transitions are executed. *)
type mode =
  | Delta  (** Containment-seeded delta installs ({!Transition.apply}). *)
  | Cold_swap  (** Remove + refetch baseline ({!Transition.apply_cold}). *)
  | Fetch  (** Keep stored filters, fetch new ones ({!Transition.apply_fetch}). *)

(** What a candidate's benefit is.  Under both, {!select} breaks a tie
    in benefit per entry one way: the candidate first observed earlier
    wins. *)
type benefit =
  | Hits
      (** Section 6.2: hits since the last re-selection, which resets
          them (an unchanged one included).  A candidate an earlier
          pick contains is still picked, as in the paper. *)
  | Decayed
      (** Interest decayed by [half_life]; a candidate an earlier pick
          contains is skipped. *)

(** Why an adaptation ran. *)
type trigger =
  | Periodic  (** The [revolution_interval] came due. *)
  | Drift  (** The drift test fired at a [drift_check_interval]. *)

type config = {
  rules : Ldap_selection.Generalize.rule list;
      (** Section 6.1 generalizations applied to observed queries. *)
  include_queries : bool;
      (** Track each observed query itself as a candidate too. *)
  benefit : benefit;
  half_life : int;
      (** Interest decay half-life, in observations ([Decayed] only). *)
  min_score : float;
      (** Candidates below this benefit are never selected. *)
  size_budget : int;  (** Max total replicated entries (estimated). *)
  revolution_interval : int;
      (** Periodic re-selection every this many observations
          (0 disables). *)
  drift_check_interval : int;
      (** Drift test every this many observations (0 disables). *)
  drift_ratio : float;
      (** Trigger when best uncovered score > ratio × best covered. *)
  mode : mode;
}

val default_config : config
(** [Decayed] benefit, [Delta] mode, half-life 256, budget 1000
    entries, revolution every 200 observations, drift checks every 25
    at ratio 2.0. *)

(** One executed re-selection. *)
type adaptation = {
  at : int;  (** Observation count when it ran. *)
  trigger : trigger;
  target : Query.t list;  (** The newly selected filter set. *)
  plan : Transition.plan;
  report : Transition.report;  (** What the execution actually did. *)
}

type t

val create : config -> Ldap_replication.Filter_replica.t -> t
(** The controller drives the given replica's stored filter set; it
    does not own query answering — callers keep calling
    {!Ldap_replication.Filter_replica.answer} and feed {!observe}. *)

val replica : t -> Ldap_replication.Filter_replica.t
(** The driven replica. *)

val observe : t -> Query.t -> unit
(** Feed one user query: interest is credited to the query and its
    generalizations, then the drift test and the periodic revolution
    run if their intervals came due.  The drift test passes when the
    best uncovered candidate scores at least [min_score] and more than
    [drift_ratio] times the best candidate the stored set covers (a
    kind with no viable candidate, or a best score below zero, counts
    as 0.0); it then re-selects at once, with trigger [Drift].  The
    test is one pass over the interest table.  Whether the stored set
    covers a candidate is memoized: the memo holds for one
    {!Ldap_replication.Filter_replica.generation} of the stored set,
    and a candidate missing from it is proved once through the
    replica's containment index
    ({!Ldap_replication.Filter_replica.covers}, which counts no
    comparisons).  An install or removal by anyone, this controller
    or not, moves the generation and so empties the memo.  A
    re-selection that would keep the stored set identical executes
    nothing (counted in {!unchanged_checks}) — no-op transitions cost
    nothing. *)

val select : t -> Query.t list
(** The filter set a re-selection would install now, in pick order:
    the candidates scoring at least [min_score], by score per
    estimated entry (at least one), taken greedily while they fit the
    size budget — ties and contained candidates as [benefit] says.
    Asks the upstream estimator for every such candidate's size;
    changes nothing. *)

val adaptations : t -> adaptation list
(** Executed adaptations, oldest first. *)

val adaptation_count : t -> int
(** The length of {!adaptations}, kept as a counter. *)

val drift_checks : t -> int
(** Drift tests run (not all of them fire). *)

val unchanged_checks : t -> int
(** Re-selections that executed nothing because the target equalled
    the stored set; with {!adaptation_count} they make up every
    re-selection run. *)

val totals : t -> Transition.report
(** Sum of all executed adaptations' reports. *)

val mode_to_string : mode -> string
(** ["delta"], ["cold-swap"] or ["fetch"], for reports. *)
