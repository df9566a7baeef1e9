(** Predicate-indexed dispatch: from an update to the sessions it can
    affect, without scanning every session.

    Each subscribed filter is reduced to one or more {e anchors} —
    normalized [(attribute, value-key)] probes such that any entry the
    filter matches necessarily hits at least one anchor:

    - equality / approx assertions anchor on the value's canonical form
      ({!Ldap.Value.canonical});
    - substring assertions with an initial component anchor on the
      normalized prefix truncated to a fixed width (lookups probe every
      prefix of an entry value up to that width);
    - ordering assertions keep per-attribute sorted bound arrays probed
      by binary search;
    - presence (and substring assertions without a usable prefix)
      anchor on the attribute alone.

    AND picks its most selective anchorable conjunct; OR needs every
    disjunct anchorable and takes the union.  Filters with no sound
    anchoring (NOT, or an OR with an un-anchorable branch) land in a
    {e fallback set} that is returned with every lookup, so indexing is
    an optimization, never a filter: for any update,
    [affected ~before ~after] is a superset of the subscribers whose
    filter matches the before- or after-image.  Subscribers whose
    content could change are therefore always candidates, and the
    caller re-runs the exact classification on candidates only. *)

open Ldap

type t

val create : unit -> t
(** An empty index; anchors resolve attribute names and matching rules
    through the schema. *)

val add : t -> int -> Filter.t -> unit
(** Registers a subscriber id under the filter's anchors (or the
    fallback set).  An id already present is re-registered under the
    new filter. *)

val remove : t -> int -> unit
(** Unregisters the id from all anchors; unknown ids are ignored. *)

type candidates
(** Deduplicated set of subscriber ids possibly affected by one
    update. *)

val affected : t -> before:Entry.t option -> after:Entry.t option -> candidates
(** Subscribers whose filter may match the update's before- or
    after-image (superset semantics; includes the fallback set).  Cost
    is proportional to the probe count of the two entries plus the
    result size, independent of the number of subscribers: a slot the
    after-image shares physically with the before-image is probed
    once, and a slot whose attribute no filter anchors costs an array
    read.  The result is the index's one candidate table, which the
    next [affected] on the same index empties and refills: read it
    before asking again. *)

val mem : candidates -> int -> bool
(** Whether the subscriber id is among the candidates. *)

val iter : (int -> unit) -> candidates -> unit
(** Applies the function to every candidate id once. *)
