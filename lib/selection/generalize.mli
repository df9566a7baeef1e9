(** Filter generalization (section 6.1).

    User queries return too few entries to be efficient replication
    units, so they are generalized into filters that describe
    frequently accessed regions.  Two guidelines from the paper (after
    Kapitskaia et al. [12]) are implemented:

    - {e value-hierarchy generalization}: an equality on an organized
      attribute becomes a prefix assertion, e.g.
      [(serialNumber=2406)] with prefix length 2 becomes
      [(serialNumber=24...)] — the whole block of serials;
    - {e attribute-component generalization}: an equality component of
      a conjunction is widened to a presence test, e.g.
      [(&(div=X)(dept=123))] becomes the generalized query
      [(&(div=X)(dept=_))] of the paper, i.e. all departments of the
      division. *)

open Ldap

type rule =
  | Prefix_value of { attr : string; keep : int }
      (** Replace [(attr=v)] by the prefix assertion keeping the first
          [keep] characters of [v] (no-op when [v] is shorter). *)
  | Widen_to_presence of { attr : string }
      (** Replace [(attr=v)] by [(attr=*﻿)] inside a conjunction (only
          when other components remain to bound the region). *)

val candidates : rule list -> Query.t -> Query.t list
(** All distinct generalizations of the query obtainable by applying
    each rule once, most specific first.  Every result semantically
    contains the input query. *)
