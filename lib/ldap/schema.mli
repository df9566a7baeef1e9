(** Directory schema: attribute types and object classes.

    A {!t} maps attribute names to their matching syntax and flags, and
    object-class names to their mandatory/optional attribute lists.
    Every filter evaluation, index lookup and containment check
    resolves value semantics through the schema, so a single instance
    is threaded through the whole system.

    {!default} registers the attribute types and object classes used by
    the paper's enterprise directory case study (inetOrgPerson and the
    organizational entries of section 7.1). *)

type attribute_type = {
  at_name : string;  (** Canonical (preferred) name. *)
  at_aliases : string list;  (** Alternative names, e.g. ["surname"]. *)
  at_syntax : Value.syntax;
  at_single_value : bool;
}

type object_class = {
  oc_name : string;
  oc_sup : string option;  (** Superclass, if any. *)
  oc_must : string list;  (** Mandatory attributes. *)
  oc_may : string list;  (** Optional attributes. *)
}

type t

val add_attribute : t -> attribute_type -> t
(** Registers the type under its canonical name and all aliases
    (case-insensitively), replacing earlier registrations. *)

val syntax_of : t -> string -> Value.syntax
(** Syntax of an attribute; unknown attributes default to
    {!Value.Case_ignore}, mirroring how directory servers treat
    undeclared attributes in filters. *)

val is_single_valued : t -> string -> bool

val required_attributes : t -> string -> string list
(** Mandatory attributes of a class including inherited ones.  Unknown
    classes have no requirements. *)

val allowed_attributes : t -> string -> string list
(** Mandatory plus optional attributes, including inherited ones. *)

val canonical_attr : t -> string -> string
(** Canonical lowercase spelling used as a key everywhere (resolves
    aliases; unknown attributes are just lowercased). *)

val default : t
(** Schema covering the case study: person entries (inetOrgPerson with
    [serialNumber], [departmentNumber], [divisionNumber], [mail], ...),
    organizational entries ([organization], [organizationalUnit],
    [country], [locality], [domain]) and [referral] objects. *)
