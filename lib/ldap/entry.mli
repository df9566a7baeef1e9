(** Directory entries: a DN plus a set of attribute/value pairs.

    Attribute names are keyed canonically (lowercase, aliases resolved
    through the schema at construction time by {!Backend}); duplicate
    values under the attribute's matching rule are rejected silently,
    as LDAP servers do. *)

type t

val make : Dn.t -> (string * string list) list -> t
(** [make dn attrs] builds an entry.  Attribute names are lowercased;
    repeated attribute names are merged; duplicate values (byte-equal)
    are dropped. *)

val dn : t -> Dn.t
val with_dn : t -> Dn.t -> t
(** The same attributes under a new DN (modify-DN support). *)

val attributes : t -> (string * string list) list
(** All attributes in insertion order, names lowercased. *)

val fold_attributes : t -> init:'a -> f:('a -> string -> string list -> 'a) -> 'a
(** Folds over exactly the pairs {!attributes} lists, in the same
    order, without building the list. *)

val get : t -> string -> string list
(** Values of an attribute ([]) if absent); name is case-insensitive. *)

val has_attribute : t -> string -> bool

val has_value : ?syntax:Value.syntax -> t -> string -> string -> bool
(** [has_value e attr v] — membership under the given matching rule
    (default {!Value.Case_ignore}). *)

val object_classes : t -> string list

val is_referral : t -> bool
(** True when the entry's object classes include [referral]; such
    entries carry [ref] LDAP-URL values and terminate naming
    contexts (section 2.3 of the paper). *)

val referral_urls : t -> string list

val add_values : ?syntax:Value.syntax -> t -> string -> string list -> t
(** Adds values, skipping ones already present under the matching rule. *)

val delete_values : ?syntax:Value.syntax -> t -> string -> string list -> (t, string) result
(** Removes the given values; [Error] if some value is absent.  Passing
    [[]] removes the attribute entirely. *)

val replace_values : t -> string -> string list -> t
(** Replaces all values of the attribute ([[]] deletes it). *)

val select : t -> string list option -> t
(** [select e attrs] projects the entry onto the requested attribute
    list; [None] (or the ["*"] wildcard inside the list) keeps all
    user attributes (section 2.2). *)

val equal : t -> t -> bool
(** Structural equality on DN and normalized attribute sets (order
    insensitive, values compared byte-wise). *)

val compiled : Schema.t -> t -> Ldap_compile.Prog.centry
(** [compiled schema e] is the entry flattened into the compiled view
    {!Ldap_compile.Prog.centry}: interned attribute ids (literal and
    schema-canonical), syntaxes resolved, and every value
    pre-canonicalized under its matching rule.  Built at most once per
    entry record and memoized — the cache is keyed on the schema's
    physical identity — so hot paths (filter bytecode, predicate-index
    probes) evaluate against it with no schema lookups or
    normalization.  {!add_values}, {!delete_values} and
    {!replace_values} derive the new record's view from the parent's
    memoized one, rebuilding only the changed attribute's slot; the
    result equals the view built from scratch. *)

val probe_slots : Schema.t -> t -> wanted:(string -> bool) -> Ldap_compile.Prog.slot array
(** [probe_slots schema e ~wanted] holds, in {!compiled} order, every
    slot of [compiled schema e] whose (lowercased) attribute name
    [wanted] accepts, and perhaps others.  A memoized view answers with
    all its slots; without one only the accepted slots are built, and
    nothing is memoized, so a probe that touches few attributes does not
    pay for a whole view. *)

val cached_hash : t -> compute:(t -> int64) -> int64
(** [cached_hash e ~compute] memoizes one 64-bit content digest per
    entry record (used by the anti-entropy tree).  All callers must
    pass the same [compute]; the cache is invalidated by mutators
    along with the compiled view. *)

val content_hash64 : t -> int64
(** 64-bit digest over the entry's canonical rendering (canonical DN,
    attributes sorted by name, values sorted within each attribute),
    memoized via {!cached_hash}.  A pure function of the {!equal}
    equivalence class: equal entries always hash equal, and (modulo
    64-bit digest collisions) unequal entries hash differently — the
    property that lets snapshot-diff serving and the anti-entropy tree
    compare content by hash instead of by entry. *)

val pp : Format.formatter -> t -> unit
(** LDIF-ish rendering for debugging and the CLI. *)
