(** Compiled filter programs over entries' slot arrays.

    The interpreted evaluator ([Ldap.Filter.matches]) re-resolves each
    predicate's attribute syntax against the schema and re-normalizes
    both the entry's values and the assertion value on {e every}
    evaluation.  Here both sides are prepared once:

    - an entry {e is} an id-sorted array of {!slot}s ([Ldap.Entry]
      builds them when the entry is made), each carrying its raw values
      and the same values pre-canonicalized (and, for Integer syntax,
      pre-parsed) under the attribute's matching rule;
    - a {!t} is a filter lowered to a short-circuit bytecode tree
      whose predicates carry pre-canonicalized assertion values keyed
      by interned attribute id.

    {!matches} then runs with no schema lookups, no normalization and
    no allocation.  The lowering lives next to [Schema] in
    [Ldap.Filter.compile]; the interpreted path remains the semantic
    oracle (see the QCheck equivalence property in the test suite). *)

type slot = {
  id : Attr_id.t;  (** interned literal (lowercased) attribute name *)
  cid : Attr_id.t;
      (** interned schema-canonical attribute name (aliases resolved) —
          the key the predicate index dispatches on *)
  syntax : Value.syntax;  (** matching rule resolved once from the schema *)
  raw : string array;  (** the values as stored, in order; never empty *)
  canon : string array;
      (** values under [Value.canonical syntax]; physically [raw] when
          every value is already canonical *)
  norm : string array;
      (** values under [Value.normalize syntax]; physically shares
          [canon] except for Integer syntax where the two differ *)
  ints : int option array;
      (** pre-parsed integers, [Some] per value that parses; [[||]]
          for non-Integer syntaxes *)
}
(** One attribute of an entry. *)

val slot_index : slot array -> Attr_id.t -> int
(** Binary-search an id-sorted slot array for the slot carrying [id];
    [-1] when the entry has no such attribute. *)

val mem_string : string array -> string -> bool
(** [mem_string a v]: is [v] byte-equal to some element of [a]?  Does
    not allocate. *)

type cmp = { c_id : Attr_id.t; c_ge : bool; c_v : string }
(** Ordering predicate for lexically-ordered syntaxes: does some value
    compare [>= 0] ([c_ge]) or [<= 0] against the pre-normalized
    assertion [c_v]? *)

type cmp_int = {
  i_id : Attr_id.t;
  i_ge : bool;
  i_v : int option;  (** assertion pre-parsed as an integer *)
  i_vs : string;  (** assertion canonical string, for the neither-parses fallback *)
}
(** Ordering predicate under Integer syntax, mirroring
    [Value.compare_integer]'s parse lattice. *)

type sub = {
  s_id : Attr_id.t;
  s_initial : string option;
  s_any : string array;
  s_final : string option;
}
(** RFC 2254 substring assertion with every segment pre-normalized. *)

type t =
  | P_true  (** matches everything (empty AND) *)
  | P_false  (** matches nothing (empty OR) *)
  | P_all of t array  (** short-circuit conjunction *)
  | P_any of t array  (** short-circuit disjunction *)
  | P_not of t  (** negation *)
  | P_present of Attr_id.t  (** attribute present with at least one value *)
  | P_eq of Attr_id.t * string  (** some value's canonical form equals this *)
  | P_cmp of cmp  (** >= / <= under a lexical syntax *)
  | P_cmp_int of cmp_int  (** >= / <= under Integer syntax *)
  | P_sub of sub  (** substring match over normalized values *)
(** Filter bytecode.  Constructors carry everything evaluation needs;
    nothing is resolved at match time. *)

val matches : t -> slot array -> bool
(** [matches p slots] evaluates the program against an entry's
    id-sorted slots.  Agrees with [Ldap.Filter.matches schema f e]
    whenever [p] was compiled from [f] under the schema [e] was made
    with and [slots] are [e]'s. *)
