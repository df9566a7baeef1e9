(** Directory schema: the attribute types of the paper's enterprise
    directory case study (inetOrgPerson and the organizational entries
    of section 7.1).

    The table is a constant: every filter evaluation, index lookup and
    containment check resolves value semantics through these lookups,
    and no other schema exists.  It covers the attributes of person
    entries ([serialNumber], [departmentNumber], [divisionNumber],
    [mail], [age], ...), of organizational entries ([o], [ou], [c],
    [l], [dc]) and the [ref] URLs of referral objects. *)

val syntax_of : string -> Value.syntax
(** Syntax of an attribute; unknown attributes default to
    {!Value.Case_ignore}, mirroring how directory servers treat
    undeclared attributes in filters. *)

val is_single_valued : string -> bool

val canonical_attr : string -> string
(** Canonical lowercase spelling used as a key everywhere (resolves
    aliases; unknown attributes are just lowercased). *)

val canonical_id : Ldap_compile.Attr_id.t -> Ldap_compile.Attr_id.t
(** [canonical_id id] is the interned {!canonical_attr} of the
    attribute [id] names.  Resolved once per id, then an array read. *)

val syntax_of_id : Ldap_compile.Attr_id.t -> Value.syntax
(** [syntax_of_id id] is {!syntax_of} the attribute [id] names.
    Resolved once per id, then an array read. *)

type t
(** A token for the one schema, carried only by the three signatures
    the end-to-end benchmark calls with it ({!Ldap_dirgen.Enterprise.schema},
    [Shard_master.create] and [Replica.eval_over_entries]), which
    ignore it. *)

val default : t
(** The one schema. *)
