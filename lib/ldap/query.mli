(** LDAP search requests (queries).

    A query carries the semantic information of section 2.2: base DN,
    scope, filter and requested attributes.  Queries are the unit of
    replication in the filter-based model, so they need cheap equality
    and a canonical string form for keying. *)

type attrs =
  | All  (** The ["*"] wildcard: every user attribute. *)
  | Select of string list  (** A specific attribute list (lowercased). *)

type t = {
  base : Dn.t;
  scope : Scope.t;
  filter : Filter.t;
  attrs : attrs;
  manage_dsa_it : bool;
      (** The manageDsaIT control: treat referral objects as ordinary
          entries instead of generating referrals.  Subtree replication
          sessions use it so referral objects travel with their
          context's content. *)
}

val make :
  ?scope:Scope.t -> ?attrs:attrs -> ?manage_dsa_it:bool -> base:Dn.t -> Filter.t -> t
(** Defaults: [~scope:Sub], [~attrs:All], [~manage_dsa_it:false]. *)

val of_strings :
  ?scope:Scope.t -> ?attrs:attrs -> base:string -> string -> (t, string) result
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
    canonical base, the whole normalized filter, scope, attributes and
    the manageDsaIT flag, so queries that differ only deep in the
    filter land in different buckets. *)

val to_string : t -> string
(** One-line rendering of base, scope, filter and attributes. *)
