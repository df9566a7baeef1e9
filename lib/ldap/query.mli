(** LDAP search requests (queries).

    A query carries the semantic information of section 2.2: base DN,
    scope, filter and requested attributes.  Queries are the unit of
    replication in the filter-based model, so they need cheap equality
    and a canonical string form for keying.

    A query's filter is in normal form ({!Filter.normal}): {!make}
    normalizes it once, where the query enters (a client request, a
    decoded DER request, a subscription), and the record is private,
    so no query can be built around a filter that is not.  The layers
    below read [q.filter] as normal and never normalize it again.

    A query also carries what the layers above would otherwise derive
    again, each made the first time it is asked for and kept for the
    value's life: its compiled program ({!Filter.compile}), which
    {!matches} runs for every search, session and replica evaluation,
    and its {!shape}, which the containment index and the shard
    partition read.  A query never asked (a shard's restriction, a
    master session's query) never pays for either. *)

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
  mutable prog : Ldap_compile.Prog.t option;
      (** The compiled filter once {!matches} (or {!conjoin}) has
          made it.  {!equal}, {!Tbl}'s hash and every other
          comparison here ignore it. *)
  mutable classified : (int * string array) option;
      (** The {!shape} once made.  Ignored by every comparison, as
          [prog] is. *)
}

val make :
  ?scope:Scope.t -> ?attrs:attrs -> ?manage_dsa_it:bool -> base:Dn.t -> Filter.t -> t
(** Defaults: [~scope:Sub], [~attrs:All], [~manage_dsa_it:false].
    Normalizes the filter ({!Filter.normalize}) and the attribute
    list. *)

val shape : t -> int * string array
(** [(id, values)]: the shape id ({!Template.shape_key}) of the
    filter's full generalization ({!Template.of_filter}) and its hole
    values by hole number, as {!Template.match_filter} binds them.
    Made by one walk ({!Template.classify}) on the first call for this
    value; every later call returns the same pair. *)

val matches : t -> Entry.t -> bool
(** The one membership test: the entry's DN is in the base/scope
    region ({!in_scope}), tested first, and the query's program,
    compiled on the first call for this value, matches its slots. *)

val with_base : t -> Dn.t -> t
(** The same query at another base: a referral or continuation
    reference chased to the region it names.  Keeps the program and
    the shape. *)

val with_filter : t -> Filter.normal -> t
(** The same query over another normal filter: a generalization.
    Drops the program and the shape; the new value makes its own. *)

val with_attrs : t -> attrs -> t
(** The same query requesting other attributes (normalized as by
    {!make}).  Keeps the program and the shape. *)

val conjoin : t -> Filter.normal -> Ldap_compile.Prog.t -> t
(** [conjoin q f p], where [p] is [f]'s compiled program: the same
    query over the normal form of [(&(f)(q.filter))], with its program
    built from [p] and [q]'s own ({!Filter.conjoin}): a shard's
    restriction, which neither normalizes nor compiles.  Drops the
    shape. *)

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
