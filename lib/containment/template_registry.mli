(** A registry of declared query templates with per-template statistics.

    Directory applications generate queries from a small set of
    prototypes (section 3.4.2), and deployments configure which of
    those a replica or proxy cache should handle — an {e admission
    policy}.  The registry classifies incoming queries against the
    declared templates, counts traffic per template (the data behind
    Table 1-style workload breakdowns), and rejects queries matching no
    template, which keeps the containment machinery bounded. *)

open Ldap

type t

type stats = {
  mutable observed : int;  (** Queries classified to this template. *)
  mutable admitted : int;  (** Of those, queries the caller admitted. *)
}

val create : Schema.t -> t
(** A registry with no declared templates. *)

val declare : t -> Template.t -> unit
(** Registers a template; duplicates (same shape) are ignored. *)

val declare_strings : t -> string list -> (unit, string) result
(** Parses and declares each template string, e.g.
    [["(serialnumber=_)"; "(&(dept=_)(div=_))"]]. *)

val templates : t -> Template.t list

val classify : t -> Query.t -> Template.t option
(** First declared template the query's filter instantiates; counts the
    observation.  [None] for unclassifiable queries (also counted). *)

val admit : t -> Query.t -> bool
(** [classify] as a boolean, additionally counting an admission. *)

val unclassified : t -> int

val stats_of : t -> Template.t -> stats option
(** Counters of a declared template (matched by shape); [None] when it
    was never declared. *)

val report : t -> (string * stats) list
(** Template shape, observation and admission counts — declared order. *)
