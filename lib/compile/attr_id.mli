(** Interned attribute identifiers.

    Attribute names appear millions of times on the hot paths — once
    per predicate per entry in filter evaluation, once per value in
    the predicate and containment indexes — and every comparison today
    pays a [String.lowercase_ascii] plus a string hash or compare.
    This module interns lowercased attribute names into dense small
    integers once, so hot-path code compares ids with [=] and indexes
    arrays by id.  The table is process-global and append-only: ids
    are stable for the life of the process and never reused. *)

type t = int
(** An interned attribute name.  Ids are dense, starting at 0. *)

val intern : string -> t
(** [intern name] returns the id for [name], case-insensitively,
    allocating a fresh id on first sight.  O(1) amortized. *)

val interned : string -> t option
(** [interned name] is [Some id] if [name] has already been interned,
    without allocating a new id. *)

val name : t -> string
(** [name id] is the lowercased attribute name behind [id].  Raises
    [Invalid_argument] on an id never returned by {!intern}. *)

