(** Partitioning a directory over shards by its natural write keys.

    The generated enterprise directory has one organized attribute —
    the serial number, whose fixed-width country-block prefix makes
    prefix filters describe contiguous blocks (section 7.2) — and a
    matching geography: each block's employees live under one country
    entry.  A partition maps every block to a shard, so each shard is
    {e described by a filter}: the disjunction of its blocks' prefix
    assertions.  That is what lets the same containment machinery that
    decides "can this replica answer this query" also decide "which
    shards can hold answers to this query".

    Shard 0 additionally owns the {e structural} entries — everything
    without a serial number (root, countries, divisions, locations) —
    and any serial whose block is not in the table, so routing is
    total.

    Query covers are computed from a compiled plan cached per filter
    {e shape}, keyed by the query's own {!Ldap.Query.shape} id (the
    interned id of its full generalization), mirroring the
    pruning-plan cache of {!Ldap_containment.Containment_index}: the
    per-shard disjointness conditions are compiled and staged once per
    shape, and evaluating a concrete query reads only the hole values
    its shape carries.  All pruning is
    sound-conservative: a shard is skipped only when it provably holds
    no answer; any failure to prove merely contacts one shard more. *)

open Ldap

type t

val create : shards:int -> blocks:(string * Dn.t option) array -> t
(** [create ~shards ~blocks] assigns block [i] — a (serialNumber
    prefix, geography DN) pair — to shard [i mod shards].  All prefixes
    must share one width (the fixed-width block layout).  A [None]
    geography disables geographic pruning for that block. *)

val of_enterprise : Ldap_dirgen.Enterprise.t -> shards:int -> t
(** The partition induced by a generated enterprise: one block per
    country, keyed on serialNumber, with the country entry as the
    block's geography. *)

val shards : t -> int
(** Number of shards. *)

val blocks_of : t -> int -> string list
(** Block prefixes assigned to a shard. *)

val is_structural : Entry.t -> bool
(** Whether the entry carries no partition key — owned by shard 0 but
    replicated to every shard as DIT scaffolding. *)

val of_serial : t -> string -> int
(** Owning shard of a partition-key value (block-prefix table lookup;
    unknown or short values route to shard 0). *)

val of_entry : t -> Entry.t -> int
(** Owning shard of an entry: {!of_serial} of its first partition-key
    value, or shard 0 when it has none. *)

val geo_consistent : t -> Entry.t -> bool
(** Whether the entry's DN lies under its block's geography (vacuously
    true for structural entries, unknown blocks and blocks without a
    geography).  A router flips geographic pruning off the first time
    a committed write violates this. *)

val ownership_filter : t -> int -> Filter.normal
(** The filter describing what a shard {e owns}: for shards [> 0] the
    disjunction of their blocks' prefix assertions; for shard 0 the
    {e complement} of every other shard's blocks, so structural
    entries and keys outside any known block are served there.
    Conjoined onto every query a shard serves, it keeps the structural
    placeholder copies on shards [> 0] out of every answer. *)

val restrict : t -> int -> Query.t -> Query.t
(** The query as one shard must serve it: the filter conjoined with
    the shard's {!ownership_filter}.  A merge, not a new normal form:
    the ownership filter is normalized and compiled once, in
    {!create}, and {!Ldap.Query.conjoin} merges its conjuncts into the
    query's sorted ones and builds the program from the two compiled
    parts.  The result equals [Filter.normalize (And [owns; q])] and
    its program equals that filter's compile. *)

val cover : ?use_geo:bool -> t -> Query.t -> int list
(** Minimal sound shard cover of a query, in shard order.  Shard
    [s > 0] is skipped when the query filter is provably disjoint from
    the shard's block disjunction; shard 0 is skipped when the filter
    is provably contained in the union of the {e other} shards' blocks
    (so it cannot match structural or unknown-block entries).  With
    [use_geo] (default true), shards whose blocks' geographies all lie
    outside the query base's subtree are also skipped.  Decisions come
    from the staged per-shape plan cache. *)

val cover_uncached : ?use_geo:bool -> t -> Query.t -> int list
(** The same cover computed without the plan cache, compiling the
    containment conditions directly per call — the oracle the cached
    path is property-tested against. *)

val plan_hits : t -> int
(** Cover computations answered from the per-shape plan cache. *)

val plan_misses : t -> int
(** Cover computations that compiled a new plan. *)
