(** Semantic containment of LDAP queries — algorithm QC (section 4).

    [Q] is contained in [Qs] when (i) the region defined by [Q]'s base
    and scope falls inside [Qs]'s region, (ii) [Q]'s attributes are a
    subset of [Qs]'s, and (iii) [Q]'s filter is contained in [Qs]'s. *)

open Ldap

val contained : Schema.t -> query:Query.t -> stored:Query.t -> bool
(** Full QC check using {!Filter_containment.contained} for the filter
    leg. *)

val region_and_attrs_ok : query:Query.t -> stored:Query.t -> bool
(** Conditions (i) and (ii) only — the cheap pre-check a replica runs
    before any filter comparison. *)
