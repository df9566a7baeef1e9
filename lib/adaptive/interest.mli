(** The candidate table: per-candidate benefit for filter selection.

    Every observation credits a candidate query; candidates are keyed
    by {!key}, so two generalizations that normalize alike share one
    entry.  Two benefit rules share the table:

    - without a [half_life], a score counts hits until {!reset} — the
      benefit since the last revolution of section 6.2;
    - with one, every score halves per [half_life] elapsed
      observations, so a candidate that was hot an hour ago stops
      outranking a flash crowd without waiting for revolutions to wash
      it out.  Decay is applied lazily on read, so cost is O(1) per
      observation and O(candidates) per {!fold}.

    The clock is the observation count, never wall time — scores are
    deterministic for a given workload, which the drift sweep's CI
    double-run diff relies on. *)

open Ldap

type t

val key : Query.t -> string
(** Canonical base, scope and normalized filter: the table's key. *)

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
(** Folds over every candidate with its score as of now, in table
    order (deterministic for a given sequence of observations). *)

val reset : t -> unit
(** Zeroes every score, keeping the candidates and their table order:
    the start of a new revolution interval. *)
