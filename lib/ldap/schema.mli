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

type t
(** A token for the one schema, carried only by the three signatures
    the end-to-end benchmark calls with it ({!Ldap_dirgen.Enterprise.schema},
    [Shard_master.create] and [Replica.eval_over_entries]), which
    ignore it. *)

val default : t
(** The one schema. *)
