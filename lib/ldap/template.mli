(** LDAP templates: query prototypes (section 3.4.2).

    A template is a filter whose assertion values are either holes
    ([_]) or constants, e.g. [(&(cn=_)(ou=research))] or
    a prefix template such as serialNumber=_....  Typical directory applications generate
    queries from a small, fixed set of templates, which is what makes
    template-based containment cheap:

    - queries are bucketed by template, eliminating comparisons against
      templates that can never answer them;
    - cross-template containment conditions are compiled once per
      template pair ([Ldap_containment.Symbolic]);
    - same-template containment reduces to comparing assertion values
      pointwise (Proposition 3, [Ldap_containment.Filter_containment]).

    A template is a pure view of a normal filter ({!Filter.normal}),
    so it lives beside {!Query}: a query classifies itself once
    ({!Query.shape}, through {!classify}) and every layer above reads
    that result instead of decomposing the filter again.

    Holes are numbered in the order one walk of the {e normalized}
    filter reaches the assertion values, the same for {!of_filter},
    {!classify} and {!of_string}, so instances of the same template
    always agree on which hole is which.  Operands go left to right;
    within a substring assertion the final component is numbered
    first, then the [any] parts in order, then the initial one. *)

type value = Hole of int | Const of string

type pred =
  | Equality of string * value
  | Greater_eq of string * value
  | Less_eq of string * value
  | Present of string
  | Substrings of string * value option * value list * value option
      (** initial, any, final; each component a hole or constant *)
  | Approx of string * value

type t = And of t list | Or of t list | Not of t | Pred of pred

val hole_attrs : t -> string array
(** [hole_attrs t] maps each hole index to the attribute whose
    assertion it fills; used to pick the matching-rule syntax for a
    hole's bound values. *)

val of_filter : Filter.normal -> t
(** Full generalization: every assertion value (and every substring
    component) becomes a hole. *)

val classify : Filter.normal -> t * string array
(** [classify f] is [(of_filter f, values)] in one walk: [values.(i)]
    is the assertion value that hole [i] stands for, exactly what
    {!match_filter} binds when matching [f] against [of_filter f]. *)

val constant : Filter.normal -> t
(** The template with no hole: every assertion value a constant.
    Compiling a condition against it folds every atom on that side. *)

val of_string : string -> (t, string) result
(** Parses a declared template: assertion values consisting of the
    single character ['_'] become holes, everything else is constant.
    [(&(cn=_)(ou=research))] has one hole.  The parsed filter is
    normalized first, so holes are numbered as in {!of_filter}. *)

val of_string_exn : string -> t

val shape_key : t -> int
(** The template's shape id: equal templates (same shape, same holes,
    same constants) get the same id, distinct ones distinct ids.  Ids
    are interned in one table for the process, numbered from 0 in the
    order shapes are first seen; a lookup hashes the template
    structurally and prints nothing. *)

val to_string : t -> string
(** The template printed as a filter, holes as [_]. *)

val match_filter : t -> Filter.normal -> string array option
(** [match_filter t f] checks whether the filter is an instance of the
    template and returns the assertion values bound to the holes.
    Constants are compared under the attribute's matching rule. *)
