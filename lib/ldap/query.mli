(** LDAP search requests (queries).

    A query carries the semantic information of section 2.2: base DN,
    scope, filter and requested attributes.  Queries are the unit of
    replication in the filter-based model, so they need cheap equality
    and a canonical string form for keying.

    A query's filter is in normal form ({!Filter.normal}): {!make}
    normalizes it once, where the query enters (a client request, a
    decoded DER request, a subscription), and the record is private,
    so no query can be built around a filter that is not.  The layers
    below read [q.filter] as normal and never normalize it again. *)

type attrs =
  | All  (** The ["*"] wildcard: every user attribute. *)
  | Select of string list  (** A specific attribute list (lowercased). *)

type t = private {
  base : Dn.t;
  scope : Scope.t;
  filter : Filter.normal;
  attrs : attrs;
  manage_dsa_it : bool;
      (** The manageDsaIT control: treat referral objects as ordinary
          entries instead of generating referrals.  Subtree replication
          sessions use it so referral objects travel with their
          context's content. *)
}

val make :
  ?scope:Scope.t -> ?attrs:attrs -> ?manage_dsa_it:bool -> base:Dn.t -> Filter.t -> t
(** Defaults: [~scope:Sub], [~attrs:All], [~manage_dsa_it:false].
    Normalizes the filter ({!Filter.normalize}) and the attribute
    list. *)

val with_base : t -> Dn.t -> t
(** The same query at another base: a referral or continuation
    reference chased to the region it names. *)

val with_filter : t -> Filter.normal -> t
(** The same query over another normal filter: a shard's restriction
    or a generalization. *)

val with_attrs : t -> attrs -> t
(** The same query requesting other attributes (normalized as by
    {!make}). *)

val of_strings : ?scope:Scope.t -> base:string -> string -> (t, string) result
(** Parses base and filter from their string representations. *)

val attrs_subset : sub:attrs -> super:attrs -> bool
(** The attribute condition of algorithm QC: [sub]'s attributes must be
    a subset of [super]'s ([All] contains everything). *)

val attr_list : attrs -> string list option
(** [None] for [All]. *)

val in_scope : t -> Dn.t -> bool
(** [in_scope q dn] — does [dn] fall in the region defined by [q]'s
    base and scope? *)

val region_subset : inner:t -> outer:t -> bool
(** Base/scope region containment, exactly the region test of algorithm
    QC (section 4): every DN in [inner]'s region lies in [outer]'s. *)

val equal : t -> t -> bool
(** [compare a b = 0]: same base, scope, filter, requested attributes
    and manageDsaIT flag. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by queries up to {!equal}.  The hash covers the
    canonical base, the whole filter, scope, attributes and
    the manageDsaIT flag, so queries that differ only deep in the
    filter land in different buckets. *)

val to_string : t -> string
(** One-line rendering of base, scope, filter and attributes. *)
