(** Compiled filter-containment conditions (Propositions 1 and 2).

    Proposition 1 reduces containment [F1 ⊆ F2] to the inconsistency
    of [F1 ∧ ¬F2].  Proposition 2 observes that for positive filters
    with equality/range predicates the inconsistency condition is a CNF
    of simple comparisons between assertion values — which can be
    computed {e once per template pair} and then evaluated per query by
    plugging in assertion values.

    This module implements that compilation.  Assertion values are
    symbolic {!operand}s: hole [i] of the contained-side template
    ([L i]), hole [i] of the containing-side template ([R i]), a
    constant, or the successor of a prefix (used to interpret
    [attr=p*] as the range [[p, succ p)]).

    Soundness contract: {!eval} returning [true] implies real
    containment under LDAP's multi-valued attribute semantics; [false]
    may be conservative (the replica then generates a spurious
    referral, never a wrong answer).  For positive filters over
    single-valued attributes with equality/range predicates the
    condition is also complete, matching the paper.  Attributes are
    treated as single-valued when the schema says so. *)

open Ldap

type operand =
  | L of int  (** Hole of the left (contained) template. *)
  | R of int  (** Hole of the right (containing) template. *)
  | C of string  (** Constant assertion value. *)
  | Succ of operand  (** Successor of a prefix: upper end of [p*]. *)

type atom =
  | Empty_range of {
      low : operand;
      low_strict : bool;
      high : operand;
      high_strict : bool;
    }  (** The range the conjunct imposes on the attribute is empty. *)
  | Equal of operand * operand
      (** An excluded point coincides with a required point. *)
  | Point_excluded of { low : operand; high : operand; excl : operand }
      (** The range is the single point [low = high] and it is
          excluded. *)
  | Has_prefix of operand * operand
      (** [Has_prefix (p, v)]: [p] is a prefix of [v] — a negated
          prefix assertion swallows the required region. *)

type cond_atom = { attr : string; atom : atom }

type clause = cond_atom list
(** Disjunction; [[]] is FALSE (the conjunct cannot be shown
    inconsistent for any values, so containment never holds). *)

type t =
  | Always  (** Contained for every assignment of hole values. *)
  | Never  (** Not contained for any assignment (template-level
              pruning: the paper's "(&(sn=_)(ou=_)) can not answer
              (sn=_)"). *)
  | Cnf of clause list  (** Conjunction of disjunctions of comparisons:
                            exactly Proposition 2's form. *)

val prefix_orderable : Value.syntax -> bool
(** Whether a prefix assertion [attr=p*] confines the value to
    [[p, succ p)] under the syntax's ordering.  True for lexically
    ordered syntaxes; false for [Integer], whose numeric order breaks
    the premise both ways ("-2*" matches -25 < -2, "1*" matches
    10 > succ "1"). *)

val compile : left:Template.t -> right:Template.t -> t option
(** Containment condition for instances of [left] in instances of
    [right].  [None] when compilation is infeasible (DNF blow-up
    beyond internal limits); callers must then fall back to a direct
    check or a conservative [false]. *)

val eval : t -> left:string array -> right:string array -> bool
(** Evaluates a compiled condition on concrete hole values. *)

(** Staged form of {!eval}: each atom of the CNF is closed over its
    resolved syntax, normalized/parsed constants and folded constant
    successors once, so evaluating the condition against a candidate
    query touches only hole values.  Same truth table as {!eval} —
    property-tested equivalent. *)
module Compiled : sig
  exception Unknown
  (** Raised inside an {!atom_fn} when a hole value is missing (the
      analogue of [Unknown_value]); {!eval} treats it as atom-false.
      Callers invoking an {!atom_fn} directly must catch it. *)

  type atom_fn = string array -> string array -> bool
  (** One staged atom; arguments are the left and right hole values. *)

  type cond = Const of bool | Clauses of atom_fn array array
  (** Staged condition: constant, or CNF of staged atoms. *)

  val atom : cond_atom -> atom_fn
  (** Stage a single atom (used by pruning plans to pre-stage
      guards). *)

  val compile : t -> cond
  (** Stage a whole condition. *)

  val eval : cond -> left:string array -> right:string array -> bool
  (** Evaluate on concrete hole values; agrees with {!Symbolic.eval}
      of the source condition. *)
end

val contained : Filter.normal -> Filter.normal -> bool
(** Direct (uncompiled) containment of concrete filters: compiles the
    filters as constant-only templates, which folds every atom at
    compile time.  This is the general Proposition 1 decision
    procedure. *)

val to_string : t -> string
(** Human-readable CNF, for inspection and tests. *)
