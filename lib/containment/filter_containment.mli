(** Filter containment: [F1 ⊆ F2] when no entry can satisfy [F1] but
    not [F2] (section 4.1).

    Three decision procedures, dispatched by {!contained}:
    - structural equality of normalized filters;
    - the same-template pointwise check of Proposition 3 (linear in
      the number of predicates);
    - the general Proposition 1 procedure via {!Symbolic.contained}.

    All procedures are sound under multi-valued attribute semantics;
    [false] answers may be conservative for filter classes outside the
    paper's scope (see {!Symbolic}). *)

open Ldap

val contained : Filter.t -> Filter.t -> bool
(** Full dispatch: equality, then same shape (Proposition 3: when the
    two normalized filters have the same template, containment follows
    from pointwise containment of corresponding predicates), then the
    general procedure. *)

val contained_general : Filter.t -> Filter.t -> bool
(** The general Proposition 1 procedure only (exposed for testing and
    benchmarking against the fast paths). *)

val disjoint : Filter.t -> Filter.t -> bool
(** Sound disjointness: [true] means no entry can satisfy both filters
    — Proposition 1 run backwards ([f ∧ g] inconsistent ⟺
    [f ⊆ ¬g]).  [false] may be conservative; a shard router that
    cannot prove a shard disjoint from a query simply contacts it. *)
