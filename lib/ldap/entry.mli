(** Directory entries: a DN plus a set of attribute/value pairs.

    An entry is its DN and one {!Ldap_compile.Prog.slot} per
    attribute, sorted by interned attribute id ({!Ldap_compile.Attr_id}).
    A slot holds the attribute's raw values and, resolved once from
    {!Schema} when the slot is built, the attribute's matching rule and
    every value's canonical form.  Filter
    bytecode and the predicate index evaluate the slots directly
    ({!compiled}); the read functions below are views over them.
    Attribute names are lowercased; values are kept as given, duplicates
    under the attribute's matching rule being rejected by the mutators,
    as LDAP servers do. *)

type t

val make : Dn.t -> (string * string list) list -> t
(** [make dn attrs] builds an entry, resolving matching rules and
    canonical values from {!Schema}.
    Attribute names are lowercased; repeated attribute names are
    merged; duplicate values (byte-equal) are dropped; an attribute
    with no values is left out. *)

val dn : t -> Dn.t
(** The entry's distinguished name. *)

val with_dn : t -> Dn.t -> t
(** The same attributes under a new DN (modify-DN support). *)

val attributes : t -> (string * string list) list
(** All attributes in attribute-id order, names lowercased, values in
    stored order. *)

val fold_attributes : t -> init:'a -> f:('a -> string -> string array -> 'a) -> 'a
(** Folds over exactly the pairs {!attributes} lists, in the same
    order, without building a list; the value array is the entry's
    own and must not be mutated. *)

val get : t -> string -> string list
(** Values of an attribute ([]) if absent); name is case-insensitive. *)

val values : t -> Ldap_compile.Attr_id.t -> string array
(** [values e id] is the raw values of the attribute [id] ([[||]] if
    absent), without allocating; the array is the entry's own and
    must not be mutated. *)

val has_attribute : t -> string -> bool
(** Whether the attribute has at least one value; name is
    case-insensitive. *)

val has_value : ?syntax:Value.syntax -> t -> string -> string -> bool
(** [has_value e attr v] — membership under the given matching rule
    (default {!Value.Case_ignore}). *)

val is_referral : t -> bool
(** True when the entry's object classes include [referral]; such
    entries carry [ref] LDAP-URL values and terminate naming
    contexts (section 2.3 of the paper). *)

val referral_urls : t -> string list
(** The [ref] values of a referral entry. *)

val add_values : t -> string -> string list -> t
(** Adds values, skipping ones already present under the attribute's
    matching rule. *)

val delete_values : t -> string -> string list -> (t, string) result
(** Removes the given values, matched under the attribute's matching
    rule; [Error] if some value is absent.  Passing [[]] removes the
    attribute entirely. *)

val replace_values : t -> string -> string list -> t
(** Replaces all values of the attribute ([[]] deletes it). *)

val select : t -> string list option -> t
(** [select e attrs] projects the entry onto the requested attribute
    list; [None] (or the ["*"] wildcard inside the list) keeps all
    user attributes (section 2.2). *)

val equal : t -> t -> bool
(** Structural equality on DN and normalized attribute sets (order
    insensitive, values compared byte-wise). *)

val compiled : t -> Ldap_compile.Prog.slot array
(** The entry's slots, sorted by id: what {!Ldap_compile.Prog.matches}
    and the predicate index evaluate.  Returned as stored, with no
    allocation; must not be mutated.  The mutators build the changed
    attribute's slot and share the others, so an attribute a mutation
    left alone keeps its slot physically. *)

val content_hash64 : t -> int64
(** 64-bit digest over the entry's canonical rendering (canonical DN,
    attributes sorted by name, values sorted within each attribute),
    memoized in the entry record (a mutator's result starts with
    none).  A pure function of the {!equal}
    equivalence class: equal entries always hash equal, and (modulo
    64-bit digest collisions) unequal entries hash differently — the
    property that lets snapshot-diff serving and the anti-entropy tree
    compare content by hash instead of by entry. *)

val pp : Format.formatter -> t -> unit
(** LDIF-ish rendering for debugging and the CLI. *)
