(** LDAP templates: query prototypes (section 3.4.2).

    A template is a filter whose assertion values are either holes
    ([_]) or constants, e.g. [(&(cn=_)(ou=research))] or
    a prefix template such as serialNumber=_....  Typical directory applications generate
    queries from a small, fixed set of templates, which is what makes
    template-based containment cheap:

    - queries are bucketed by template, eliminating comparisons against
      templates that can never answer them;
    - cross-template containment conditions are compiled once per
      template pair ({!Symbolic});
    - same-template containment reduces to comparing assertion values
      pointwise (Proposition 3, {!Filter_containment}).

    Hole numbering is the left-to-right order in the {e normalized}
    filter, so instances of the same template always agree on which
    hole is which. *)

open Ldap

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

val of_filter : Filter.t -> t
(** Full generalization: every assertion value (and every substring
    component) becomes a hole.  The filter is normalized first. *)

val of_string : string -> (t, string) result
(** Parses a declared template: assertion values consisting of the
    single character ['_'] become holes, everything else is constant.
    [(&(cn=_)(ou=research))] has one hole. *)

val of_string_exn : string -> t

val shape_key : t -> string
(** Key identifying the template's shape with hole positions; equal
    templates (same shape, same constants) have equal keys. *)

val match_filter : t -> Filter.t -> string array option
(** [match_filter t f] checks whether the (normalized) filter
    is an instance of the template and returns the assertion values
    bound to the holes.  Constants are compared under the attribute's
    matching rule. *)
