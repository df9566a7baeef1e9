(** Directory schema: attribute types.

    A {!t} maps attribute names to their matching syntax and flags.
    Every filter evaluation, index lookup and containment check
    resolves value semantics through the schema, so a single instance
    is threaded through the whole system.

    {!default} registers the attribute types used by the paper's
    enterprise directory case study (inetOrgPerson and the
    organizational entries of section 7.1). *)

type t

val syntax_of : t -> string -> Value.syntax
(** Syntax of an attribute; unknown attributes default to
    {!Value.Case_ignore}, mirroring how directory servers treat
    undeclared attributes in filters. *)

val is_single_valued : t -> string -> bool

val canonical_attr : t -> string -> string
(** Canonical lowercase spelling used as a key everywhere (resolves
    aliases; unknown attributes are just lowercased). *)

val default : t
(** Schema covering the case study's attributes: those of person
    entries ([serialNumber], [departmentNumber], [divisionNumber],
    [mail], [age], ...), of organizational entries ([o], [ou], [c],
    [l], [dc]) and the [ref] URLs of referral objects. *)
