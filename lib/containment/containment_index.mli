(** Template-bucketed store of replicated queries.

    A filter-based replica must decide, for each incoming query,
    whether it is contained in {e some} stored query.  This structure
    implements the template optimizations of section 3.4.2:

    - stored queries are bucketed by their (fully generalized)
      template, so an incoming query is only compared against buckets
      whose template can potentially contain its own;
    - per template pair, the containment condition is compiled once
      ({!Symbolic.compile}) and cached; pairs whose condition is
      [Never] are skipped entirely;
    - within a bucket, checking a stored query evaluates the compiled
      CNF on the two assertion-value vectors — for same-template pairs
      this is Proposition 3's pointwise comparison.

    The structure counts value comparisons so the query-processing
    overhead claims of section 7.4 can be measured. *)

open Ldap

type 'a t

val create : unit -> 'a t
(** An empty index whose containment checks use the schema's matching
    rules. *)

val add : 'a t -> Query.t -> 'a -> unit
(** Stores a query with its payload.  A query equal to an existing one
    replaces its payload. *)

val remove : 'a t -> Query.t -> unit
(** Drops the stored query equal to the argument; absent queries are
    ignored. *)

val find : 'a t -> Query.t -> 'a option
(** Payload of the exact stored query (no containment), if present.
    Answered from a table keyed by the query itself ({!Ldap.Query.Tbl}),
    kept in step by {!add}, {!remove} and {!clear}: no template
    decomposition and no bucket scan. *)

val mem : 'a t -> Query.t -> bool
(** Whether a query equal to the argument is stored; same table as
    {!find}. *)

val length : 'a t -> int
(** Number of stored queries. *)

val find_container : 'a t -> Query.t -> (Query.t * 'a) option
(** First stored query that semantically contains the argument
    (region, attributes and filter), or [None]. *)

val find_container_where :
  'a t -> Query.t -> pred:(Query.t -> 'a -> bool) -> (Query.t * 'a) option
(** Like {!find_container}, restricted to stored queries satisfying
    [pred] — e.g. only stored queries whose content carries the
    attributes the incoming filter needs. *)

val fold : 'a t -> init:'b -> f:('b -> Query.t -> 'a -> 'b) -> 'b
(** Folds over every stored query and its payload, in no particular
    order. *)

val iter : 'a t -> f:(Query.t -> 'a -> unit) -> unit
(** {!fold} for effects. *)

val comparisons : 'a t -> int
(** Cumulative number of stored-query checks performed by
    {!find_container} — the processing-cost metric of section 7.4. *)
