(** Window cache of recently performed user queries (section 7.4).

    Alongside replicated generalized filters it pays to keep the last
    [capacity] user queries with their full results: temporal locality
    alone gives the paper a ~0.2 hit ratio.  Cached queries are {e not}
    kept in sync with the master; they are simply dropped as the window
    slides, so staleness is bounded by the window.  Containment is
    checked through a {!Ldap_containment.Containment_index}, so a
    cached query can also answer narrower queries. *)

open Ldap

type t

val create : capacity:int -> t
(** [capacity <= 0] disables the cache. *)

val length : t -> int

val add : t -> Query.t -> Entry.t list -> unit
(** Inserts a query with its result, evicting the oldest entry when
    the window is full.  Re-adding an existing query refreshes its
    result and its position. *)

val answer : t -> Query.t -> Entry.t list option
(** A result when some cached query contains the argument; the result
    is re-evaluated against the incoming query locally. *)

val comparisons : t -> int
