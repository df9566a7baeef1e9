(** Distinguished names (RFC 2253).

    A DN is a sequence of relative DNs (RDNs), leaf-most first; the
    empty sequence is the DIT root (the "null" DN of the paper's
    section 2.1).  Each RDN is a non-empty set of attribute/value
    assertions (multi-valued RDNs such as [cn=X+sn=Y] are supported).

    Comparison normalizes attribute names and values case-insensitively
    with space squashing — the [caseIgnore] rule that directory naming
    attributes use in practice — so [ou=Research,O=XYZ] equals
    [OU=research, o=xyz].

    The ancestor relation {!ancestor_of} is the paper's
    [isSuffix (a, b)]: [a] is an ancestor of [b] iff [a]'s RDN sequence
    is a proper suffix of [b]'s. *)

type ava = { attr : string; value : string }
(** One attribute/value assertion.  [attr] is stored lowercased. *)

type rdn = ava list
(** Sorted by attribute then normalized value; never empty. *)

type t

val root : t
(** The null DN naming the DIT root. *)

val is_root : t -> bool

val of_string : string -> (t, string) result
(** Parses an RFC 2253 string ("cn=John Doe,ou=research,o=xyz").
    Handles [\\] escapes and [\XX] hex pairs.  The empty string parses
    to {!root}. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on a malformed DN. *)

val to_string : t -> string
(** Prints with RFC 2253 escaping; inverse of {!of_string} up to value
    normalization. *)

val string_length : t -> int
(** [String.length (to_string dn)], computed without building the
    string: wire sizes are taken on every reply. *)

val equal : t -> t -> bool
(** Equality of canonical forms: the same RDN sequence under
    case-insensitive, space-squashing value matching. *)

val compare : t -> t -> int
(** Total order on canonical forms, consistent with {!equal}. *)

val canonical : t -> string
(** Normalized string form: stable key for hash tables and maps.  Equal
    DNs have equal canonical forms. *)

val depth : t -> int
(** Number of RDNs; the root has depth 0. *)

val rdn : t -> rdn option
(** Leaf-most RDN; [None] for the root. *)

val parent : t -> t option
(** Immediate superior; [None] for the root.  Cut from [t]'s canonical
    string and part offsets, which it shares its parts with. *)

val child : t -> rdn -> t
(** [child dn r] names [r] directly beneath [dn]: [dn]'s canonical
    string and offsets extended by [r]'s, byte for byte what parsing
    the whole DN builds, with only [r] normalized. *)

val child_ava : t -> string -> string -> t
(** [child_ava dn attr value] is [child dn [{attr; value}]]. *)

val ancestor_of : ?strict:bool -> t -> t -> bool
(** [ancestor_of a b] — the paper's [isSuffix (a, b)] — holds when
    every RDN of [a] is a suffix of [b]'s RDN sequence.  With
    [~strict:false] (the default) a DN is an ancestor of itself. *)

val parent_of : t -> t -> bool
(** [parent_of a b] — the paper's [isparent (a, b)] — holds when [a]
    is the immediate superior of [b]. *)

val rdn_of_string : string -> (rdn, string) result
(** Parses a single RDN such as ["cn=John Doe"] or ["cn=X+sn=Y"]. *)

val rdn_to_string : rdn -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
