(** LDAP search filters (RFC 2254).

    The abstract syntax covers the predicate forms used by the paper:
    equality, range ([>=], [<=]), presence, substring and approximate
    assertions, combined with AND ([&]), OR ([|]) and NOT ([!]).

    Filters without NOT are {e positive filters} (section 2.2); the
    containment propositions 2 and 3 apply to those. *)

type substring = {
  initial : string option;
  any : string list;
  final : string option;
}
(** [attr=initial*any1*any2*final]; at least one component is present. *)

type pred =
  | Equality of string * string  (** [(attr=value)] *)
  | Greater_eq of string * string  (** [(attr>=value)] *)
  | Less_eq of string * string  (** [(attr<=value)] *)
  | Present of string  (** presence test [(attr=<star>)] *)
  | Substrings of string * substring  (** [(attr=smi*th)] *)
  | Approx of string * string  (** [(attr~=value)]; matched as equality *)

type t =
  | And of t list
  | Or of t list
  | Not of t
  | Pred of pred

val tt : t
(** The presence filter on objectClass — matches every entry
    (section 2.2). *)

val pred_attr : pred -> string
(** The attribute an atomic predicate constrains (lowercased). *)

val attributes : t -> string list
(** Attributes mentioned, lowercased, deduplicated, sorted. *)

val fold_pred : ('a -> pred -> 'a) -> 'a -> t -> 'a
(** Folds over every atomic predicate, left to right. *)

type normal = private t
(** A filter in normal form: nested AND/OR flattened, single-operand
    AND/OR wrappers dropped, attribute names lowercased, AND/OR
    operands sorted and deduplicated structurally.  {!normalize} is
    the only way in (besides {!negate}, which keeps the form), so a
    value of this type never needs normalizing again; [(f :> t)]
    reads it as a plain filter. *)

val normalize : t -> normal
(** The normal form of a filter.  Idempotent: normalizing a normal
    filter rebuilds the same tree.  A filter is normalized where it
    enters: {!Query.make}, a shard's restriction, generalization's
    output and template parsing. *)

val negate : normal -> normal
(** [(!f)]: the negation of a normal filter is normal as it stands. *)

val equal : normal -> normal -> bool
(** Structural equality; two filters are equivalent up to operand
    order, nesting and attribute case exactly when their normal forms
    are equal. *)

val compare : normal -> normal -> int
(** Total structural order, agreeing with {!equal}. *)

val hash : normal -> int
(** Structural hash, consistent with {!equal}; every predicate
    contributes, however many there are. *)

val compile : t -> Ldap_compile.Prog.t
(** [compile f] lowers the filter once into the flat bytecode of
    {!Ldap_compile.Prog}: assertion values pre-canonicalized under
    each predicate's matching rule, attributes interned to ids,
    AND/OR as short-circuit arrays.  An AND tests its cheapest
    conjuncts first: equalities, then the other predicates, then
    negations and disjunctions, each group in operand order.
    Evaluate with [Prog.matches (compile f) (Entry.compiled e)], which
    agrees with {!matches} (the interpreted oracle) on every entry.
    A query's program is compiled once, by {!Query.matches}. *)

val conjoin :
  normal -> Ldap_compile.Prog.t -> normal -> Ldap_compile.Prog.t ->
  normal * Ldap_compile.Prog.t
(** [conjoin a pa b pb], where [pa] and [pb] are the programs
    {!compile} made of [a] and [b]: the normal form of [(&(a)(b))]
    and its program.  Both equal what {!normalize} and {!compile}
    would make, but neither is run: the two sorted operand lists are
    merged and each operand keeps the node it was compiled to. *)

val matcher : t -> Entry.t -> bool
(** [matcher f] compiles [f] and returns a closure evaluating it
    against entries' slots — the convenient form for hoisting one
    compile out of a per-entry loop. *)

val matches : t -> Entry.t -> bool
(** Filter evaluation over an entry, using the schema's matching rules.
    Follows LDAP three-valued semantics collapsed to two: a predicate
    on an absent attribute is false, and NOT of it is true. *)

val of_string : string -> (t, string) result
(** RFC 2254 parser, including [\XX] hex escapes in assertion values. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on a malformed filter. *)

val to_string : t -> string
(** RFC 2254 printer; [of_string (to_string f)] re-reads [f]. *)

val printed_length : t -> int
(** [String.length (to_string f)], counted without building the
    string: the size a search request's filter is modelled at. *)
