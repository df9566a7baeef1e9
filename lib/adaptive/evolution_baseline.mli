(** The evolutions/revolutions algorithm of Kapitskaia, Ng and
    Srivastava (EDBT 2000, [12]) — the baseline section 6.2 argues is
    unsuitable for replication.

    Two lists are maintained: the {e actual} filters (stored in the
    replica) and {e candidate} filters.  On every query the benefits of
    both lists are updated with exponential ageing; when a candidate's
    benefit exceeds the weakest actual's by a margin, the lists evolve
    immediately (swap) — which in a replication setting triggers fetch
    traffic on the spot.  When the candidates' total benefit exceeds
    the actuals' by a threshold, a revolution re-selects globally.

    Exposed so benchmarks can compare its update traffic against the
    paper's periodic selection. *)

open Ldap

type config = {
  rules : Ldap_selection.Generalize.rule list;
  size_budget : int;
  ageing : float;  (** Benefit decay per observed query, in [0,1). *)
  swap_margin : float;  (** Candidate must beat weakest actual by this factor. *)
  include_queries : bool;  (** Treat each observed query as a candidate too. *)
}

type t

val create : config -> Ldap_replication.Filter_replica.t -> t
(** A baseline with no candidates that drives the given replica's
    stored filter set. *)

val observe : t -> Query.t -> unit
(** Feed one user query: every benefit ages by [ageing], the query's
    generalizations (and the query itself under [include_queries]) gain
    one.  Candidates are keyed as {!Interest.Tbl} keys them.  The best
    non-stored candidate by benefit/size, the earliest observed among
    equals, is then installed on the spot when it fits the budget with
    a positive ratio, or else replaces the weakest stored filter when
    its ratio beats that filter's by the factor [1 + swap_margin] (and
    it fits once the weakest is gone). *)

val swaps : t -> int
(** Number of immediate evolutions performed (each caused fetch
    traffic). *)
