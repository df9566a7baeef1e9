(** The candidate table: per-candidate benefit for filter selection.

    Every observation credits a candidate query; candidates are keyed
    as {!Tbl} keys them, so two generalizations that normalize alike
    share one entry.  Two benefit rules share the table:

    - without a [half_life], a score counts hits until {!reset} — the
      benefit since the last revolution of section 6.2;
    - with one, every score halves per [half_life] elapsed
      observations, so a candidate that was hot an hour ago stops
      outranking a flash crowd without waiting for revolutions to wash
      it out.  Decay is applied lazily on read, so cost is O(1) per
      observation and O(candidates) per {!fold}.

    The clock is the observation count, never wall time — scores are
    deterministic for a given workload, which the drift sweep's
    pinned smoke output relies on. *)

open Ldap

type t

module Tbl : Hashtbl.S with type key = Query.t
(** Hash tables keyed as this table keys its candidates: by canonical
    base ({!Ldap.Dn.equal}), scope and normal filter
    ({!Ldap.Filter.equal}, {!Ldap.Filter.hash}).  Requested attributes
    and the manageDsaIT flag are ignored, and nothing is printed. *)

val create : ?half_life:int -> unit -> t
(** An empty table.  [half_life] is the number of observations over
    which an untouched score halves; without it scores never decay.
    @raise Invalid_argument when [half_life <= 0]. *)

val observe : t -> Query.t -> unit
(** Advances the clock one tick and credits 1.0 to the query's score,
    registering it first if new. *)

val touch : t -> unit
(** Advances the clock one tick without crediting any candidate —
    ages the whole table, used for queries that produce no
    candidates. *)

val fold : t -> init:'a -> f:('a -> Query.t -> float -> 'a) -> 'a
(** Folds over every candidate with its score as of now, in the order
    the candidates were first observed. *)

val reset : t -> unit
(** Zeroes every score, keeping the candidates and their order: the
    start of a new revolution interval. *)
