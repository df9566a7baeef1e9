(** Attribute values and matching rules.

    LDAP attribute values are strings whose comparison semantics depend
    on the attribute's syntax (RFC 2252).  This module implements the
    small set of matching rules the paper's directory needs:
    case-insensitive strings, case-exact strings, integers and
    telephone numbers.  All containment and filter-evaluation decisions
    flow through {!compare} and {!normalize} so that every component of
    the system agrees on value semantics. *)

type syntax =
  | Case_ignore  (** [caseIgnoreMatch]: compared case-insensitively, with
                     leading/trailing/duplicate spaces squashed. *)
  | Case_exact  (** [caseExactMatch]: compared byte-wise after space
                    squashing. *)
  | Integer  (** [integerMatch]: compared numerically; values that do not
                 parse as integers order after all integers,
                 lexicographically. *)
  | Telephone  (** [telephoneNumberMatch]: case-insensitive with spaces
                   and hyphens removed. *)

val lowercase : string -> string
(** [String.lowercase_ascii], except that a string with no uppercase
    letter is returned itself rather than copied. *)

val normalize : syntax -> string -> string
(** [normalize syntax v] is the canonical form used for equality,
    ordering, indexing and DN comparison. *)

val canonical : syntax -> string -> string
(** Canonical representative of the value's equality class:
    [equal syntax a b] iff [canonical syntax a = canonical syntax b].
    Unlike {!normalize} this also folds Integer-syntax spellings
    ("07" and "7") together, so it is safe to use as a hash key that
    stands in for {!equal}. *)

val compare : syntax -> string -> string -> int
(** Total order on values under the given syntax.  For [Integer] this
    is numeric order on values that parse as integers. *)

val equal : syntax -> string -> string -> bool

val matches_substring :
  syntax -> initial:string option -> any:string list -> final:string option ->
  string -> bool
(** [matches_substring syntax ~initial ~any ~final v] implements the
    RFC 2254 substring assertion: [v] must start with [initial], then
    contain each element of [any] in order without overlap, then end
    with [final]. *)

val successor_of_prefix : string -> string
(** [successor_of_prefix p] is the smallest string strictly greater than
    every string having prefix [p] (in normalized byte order): the
    prefix with its last byte incremented, dropping trailing [0xff]
    bytes.  Used to interpret prefix assertions [attr=p*] as the range
    [[p, successor_of_prefix p)] during containment checks and index
    range scans.  Raises [Invalid_argument] on the empty string or a
    prefix made solely of [0xff] bytes. *)
