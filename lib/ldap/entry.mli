(** Directory entries: a DN plus a set of attribute/value pairs.

    An entry is its DN and one {!Ldap_compile.Prog.slot} per
    attribute, sorted by interned attribute id ({!Ldap_compile.Attr_id}).
    A slot holds the attribute's raw values and, read from {!Schema}'s
    per-id table when the slot is built ({!Schema.syntax_of_id},
    {!Schema.canonical_id}), the attribute's matching rule and
    canonical id and every value's canonical form.  Filter
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

type mod_kind =
  | Add_values  (** adds values, skipping ones already present under the
                    attribute's matching rule *)
  | Delete_values
      (** removes the values, matched under the matching rule; an absent
          value or attribute fails the edit, and no values removes the
          attribute *)
  | Replace_values  (** replaces every value; no values removes the attribute *)
(** What one modify item does to its attribute's values. *)

type mod_item = { mod_kind : mod_kind; mod_attr : string; mod_values : string list }
(** One item of an LDAP modify ({!Update.mod_item} is this type). *)

val edit : ?dn:Dn.t -> ?stamp:string -> t -> mod_item list -> (t, string) result
(** [edit ?dn ?stamp e items] applies each item in order, each to the
    values the items before it left, then replaces [modifyTimestamp]
    with [stamp] when given, and renames the result to [dn] when
    given: every mutation of an entry is one [edit].  The first
    failing delete's [Error] is returned.  The result is one record
    over one new slot array; an attribute no change alters keeps its
    slot physically, and with nothing altered the result is [e]
    itself. *)

val delete_values : t -> string -> string list -> (t, string) result
(** One {!Delete_values} {!edit}. *)

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
(** 64-bit digest (MD5) over the entry's canonical rendering
    (canonical DN, attributes sorted by name, values sorted within
    each attribute), memoized in the entry record (a mutator's result
    starts with none).  A pure function of the {!equal} equivalence
    class: equal entries always hash equal, and (modulo 64-bit digest
    collisions) unequal entries hash differently — the property that
    lets the anti-entropy Merkle tree ({!Ldap_antientropy.Tree}, its
    one caller) compare content by hash instead of by entry.  Code
    that holds both entries compares them with {!equal} instead. *)

val encoded_size : t -> compute:(t -> int) -> int
(** [encoded_size e ~compute] is [compute e], computed at most once
    per entry record and then read from the record: every constructor
    and mutator result starts without a size, so the cache always
    describes the record it sits on.  {!Ber.entry_size} is the one
    caller, so every wire-size figure reads one walk per entry
    version; another [compute] would share (and clobber) that cache. *)

val der : t -> compute:(t -> string) -> string
(** [der e ~compute] is [compute e], computed at most once per entry
    record and then kept on it, as {!encoded_size} keeps the size:
    every constructor and mutator result ({!make}, {!edit} with or
    without [~dn], {!select}, a decode) starts without an image, so
    the cache always describes the record it sits on.
    {!Ber_codec.Der} is the one caller ({!Ber_codec.Der.entry} and
    {!Ber_codec.Der.W.keep_entry}), and [compute] gives its DER image;
    a durable consumer fills the cache as it journals an entry and
    its checkpoint reads it, so one entry version is encoded once
    however often it is written. *)

val cached_der : t -> string option
(** The image {!der} kept on this record, if any; never computes one.
    The DER writers copy it instead of encoding the entry again. *)

val pp : Format.formatter -> t -> unit
(** LDIF-ish rendering for debugging and the CLI. *)
