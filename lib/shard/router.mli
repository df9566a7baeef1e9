(** The shard router: one endpoint fronting a partitioned set of
    {!Shard_master}s.

    Writes are routed to the owning shard by partition key (an
    ownership change re-homes the entry with a delete/add pair);
    structural entries — those without a key — are applied everywhere,
    so every shard holds the DIT scaffolding its owned entries hang
    from, while each shard's {!Partition.ownership_filter} keeps those
    placeholder copies out of everything it serves.

    Reads and ReSync sessions fan out over the minimal shard
    {!Partition.cover} of the query, through the same
    {!Ldap.Network}-backed RPC (fault schedule, byte accounting,
    virtual clock) every other replication path uses.  The router is
    itself a {!Ldap_resync.Transport.endpoint}, so consumers, filter
    replicas and topology leaves subscribe through it exactly as they
    would to a single master — one upstream session each, over however
    many per-shard sessions the cover needs.

    A poll reply merges the per-shard replies and interleaves their
    cookies into one composite resume handle
    ({!Ldap_resync.Protocol.composite_cookie}).  The merge discipline
    keeps the composite honest across partial failures — a consumer
    can never acknowledge a shard CSN whose actions it has not
    applied:

    - all shards replied [Incremental]: actions concatenate; shards
      that failed keep their {e previous} cookie component.
    - any reply was [Initial_content] or [Degraded]: these prune the
      consumer globally, so the merge is only safe when {e every}
      covered shard contributed — a partial fan-out returns an error
      (the consumer retries; shards whose sessions advanced answer the
      retry degraded from the acknowledged CSN).  On a full fan-out
      the [Incremental] legs are {e escalated}: their advanced
      sessions are ended and re-polled through
      {!Ldap_resync.Protocol.reparent_cookie}, turning them degraded
      from the consumer's acknowledged CSN, and the merged reply is
      [Degraded] (or [Initial_content] when every leg was initial).

    Merkle anti-entropy walks fan out the same way: shard contents are
    disjoint and segment hashes aggregate by XOR, so the union's tree
    is the per-index XOR of the shard trees, and a [Fetch] merges the
    shipped entries with a composite of the per-shard resume
    cookies.

    {b What a steady poll rebuilds: nothing.}  A shard's slice of a
    consumer's content is fixed by the consumer's query, so the router
    memoizes, per session query, the {!Partition.restrict}ion it sent
    each shard.  Every exchange that opens, resumes or ends a shard
    session — poll, persist, [Sync_end], escalation and the Merkle
    walk — sends the memoized value, so a shard master sees the
    physically same query on each poll and proves it equal to its
    session's with one pointer test.  {!search} and the size estimate
    restrict afresh: their queries do not repeat, and a restriction is
    a merge of two prepared parts ({!Partition.restrict}).  The memo
    also keeps the query's cover with the geography flag it was
    planned under; a poll plans it again only after a write switched
    geographic pruning off, so the next poll contacts the widened
    cover.  The memo is bounded by live state: a query's
    entry goes at its [Sync_end], and an insertion that finds the memo
    holding as many queries as the shard masters hold sessions in
    total, plus 16, empties it first.  So no insertion leaves more
    queries than that total plus 16.

    A merged reply whose covered legs all answered with the component
    they were presented hands back the presented cookie itself when
    that cookie is already in {!Ldap_resync.Protocol.composite_cookie}'s
    form ({!Ldap_resync.Protocol.is_canonical_composite}); otherwise it
    mints one.  Either way the bytes are those [composite_cookie]
    prints for the merged components. *)

open Ldap

type t

val create : Partition.t -> Ldap_resync.Transport.t -> Shard_master.t array -> t
(** Wires the router: every shard master is registered on the
    transport under its host, and the router itself under ["router"].
    The array length must equal the partition's shard count. *)

val host : t -> string
(** Host name this router answers under on the transport. *)

val partition : t -> Partition.t
(** The partition the router routes by. *)

val shard : t -> int -> Shard_master.t
(** The shard master currently serving shard [i]. *)

val replace_shard : t -> int -> Shard_master.t -> unit
(** Swaps in a (typically recovered) shard and re-registers it on the
    transport — the restart path after a single-shard crash. *)

val seed_from_backend : t -> Backend.t -> (unit, string) result
(** Distributes a source backend's content over the shards through the
    restore path: naming contexts and structural entries everywhere,
    keyed entries at their owner. *)

val apply : t -> Update.op -> (Update.record, string) result
(** Routes one write to the shard holding its DN, read from the shard
    backends themselves: every shard holds a structural entry, only its
    owner a keyed one.  An add of a DN no shard holds routes by the new
    entry's key.  Structural writes apply at every shard.  A committed
    after-image whose key moved ownership is re-homed with a delete at
    the old shard and an add at the new. *)

val cover : t -> Query.t -> int list
(** The shard cover the router would fan a query over (geographic
    pruning included while no committed write has violated the
    geography assumption). *)

val search : t -> Query.t -> (Entry.t list, string) result
(** Fans a search over the cover via {!Ldap.Network.rpc}, restricted
    to each shard's owned content, and concatenates the (disjoint)
    results. *)

(** Per-shard state and routing counters, read by the shard sweep and
    the end-to-end benchmark. *)
type shard_stat = {
  ss_owned : int;
      (** Entries this shard owns; structural entries count at shard 0,
          so the values sum to the number of distinct DNs. *)
  ss_applied : int;  (** Updates applied since creation or recovery. *)
}

type report = {
  rp_shards : shard_stat list;
  rp_plan_hits : int;
      (** Covers answered without compiling a plan: from the
          partition's per-shape plan cache, or a poll's cover reused
          from the memo, which stands for the plan-cache hit its
          recomputation would have been. *)
  rp_plan_misses : int;
  rp_searches : int;
  rp_search_contacts : int;  (** Shards contacted by searches. *)
  rp_polls : int;
  rp_poll_contacts : int;  (** Shards contacted by resync exchanges. *)
  rp_moves : int;  (** Ownership re-homings. *)
  rp_partials : int;  (** Poll replies merged with a failed shard. *)
  rp_escalations : int;  (** Incremental legs degraded on mixed merges. *)
  rp_geo_pruning : bool;
  rp_restricted_queries : int;
      (** Session queries in the restriction memo (see the module
          doc). *)
}

val report : t -> report
(** Snapshot of per-shard state and the router's routing counters. *)
