(** Server-side sorting of search results (RFC 2891) — the control the
    paper cites in section 2.2 as an example of altering an operation's
    behaviour.

    Results are ordered by a list of sort keys, each an attribute with
    an optional reverse flag; comparison uses the attribute's matching
    rule.  Entries lacking the attribute sort after all others (the
    RFC's "largest value" treatment). *)

type key = { attr : string; reverse : bool }

val sort : Schema.t -> keys:key list -> Entry.t list -> Entry.t list
(** Stable sort by the given keys, most significant first. *)

val keys_of_string : string -> (key list, string) result
(** Parses a CLI-style spec: comma-separated attributes, each with an
    optional leading [-] for reverse order, e.g. ["sn,-age"]. *)
