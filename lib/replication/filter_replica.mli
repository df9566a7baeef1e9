(** Filter-based partial replica — the paper's proposed model
    (section 3).

    The replica stores, for each replicated LDAP query, its meta
    information (the search specification) and its content (kept in
    sync through a ReSync session).  An incoming query is answered
    locally iff it is semantically contained in a stored query
    (decided through the template-bucketed containment index) or in a
    recently cached user query; otherwise a referral is generated.

    The stored filter set can be changed dynamically — the filter
    selection algorithm of section 6.2 calls {!install_filter} and
    {!remove_filter} at every revolution; the traffic this causes is
    accounted separately as fetch traffic (section 7.3).

    All upstream traffic rides a {!Ldap_resync.Transport}: polls retry
    with backoff on loss, disrupted sessions recover by degraded
    resync, and the retries/resyncs/recovery bytes appear in
    {!Stats}.  The upstream is addressed as a transport {e endpoint},
    so it can be the root master or another filter replica acting as
    an intermediate master in a cascading topology. *)

open Ldap

type t

val create_over :
  ?host:string -> ?cache_capacity:int -> Ldap_resync.Transport.t -> master_host:string -> t
(** A replica whose upstream lives at [master_host] on the given
    transport (subject to its fault schedule); the one way to make a
    replica, so its exchanges share the scenario's network and clock.
    [host] (default ["replica"]) names this end for partition checks
    and accounting.  [cache_capacity] sizes the user-query window
    (default 0: no caching of user queries).
    @raise Invalid_argument if no endpoint is registered at
    [master_host]. *)

val stats : t -> Stats.t
(** Counters for queries answered, synchronization and fetch traffic,
    and replies served downstream. *)

val transport : t -> Ldap_resync.Transport.t
(** The transport this replica reaches its upstream over. *)

val master_host : t -> string
(** The endpoint name this replica currently synchronizes from. *)

val retarget : t -> master_host:string -> unit
(** Re-parents the replica to a different upstream endpoint.  Every
    stored filter's resume cookie is rewritten with
    {!Ldap_resync.Protocol.reparent_cookie}: the acknowledged CSN is
    kept but the session id — meaningless to the new upstream — is
    dropped, so the next poll resynchronizes degraded from that CSN
    instead of reloading content from scratch.
    @raise Invalid_argument if no endpoint is registered at
    [master_host]. *)

val set_on_change :
  t ->
  (stored:Query.t -> before:Entry.t option -> after:Entry.t option -> unit) ->
  unit
(** Registers an observer fired once per content change of any stored
    filter, tagged with the stored query whose consumer changed.  An
    intermediate topology node uses this to relay changes to the
    downstream sessions whose filters the stored query serves.
    Registration applies to filters installed before and after the
    call. *)

val install_filter : t -> Query.t -> (unit, string) result
(** Starts replicating a query: fetches its initial content from the
    upstream (fetch traffic) and registers it in the containment
    index.  Installing an already stored query is a no-op. *)

val remove_filter : t -> Query.t -> unit
(** Stops replicating the query (ends its ReSync session upstream). *)

(** {1 Delta installs}

    A filter-set transition (selection revolution, drift-triggered
    re-scope) does not have to refetch regions the replica already
    holds: containment over the old and new filter sets classifies
    each incoming query against what is stored, and the install is
    seeded from the overlapping donors so only the net-new content
    crosses the wire. *)

(** How a delta install actually brought the content in. *)
type install_how =
  | Kept  (** Already stored — nothing to do. *)
  | Rescoped
      (** Seeded wholesale from a containing donor and opened with a
          foreign-session cookie at the donor's acknowledged CSN; the
          upstream answered degraded from there (changed members as
          full entries, the rest as DN-only retains). *)
  | Seeded
      (** Seeded from overlapping donors, then Merkle-reconciled so
          only the differing segments shipped. *)
  | Cold
      (** Preconditions failed, or the seeded install's walk did: plain
          initial-content fetch. *)

val install_filter_rescoped :
  t -> Query.t -> donor:Query.t -> (install_how, string) result
(** Installs [q] seeded from the stored [donor] that contains it: the
    donor's entries are evaluated under [q] locally, and the new
    session opens with {!Ldap_resync.Protocol.cookie_of} at the
    donor's acknowledged CSN, so the upstream's degraded reply ships
    full entries only for members changed since then.  Falls back to
    {!install_filter} when the donor is not stored, holds no cookie
    yet, or its attribute projection cannot supply [q]'s widened
    selection (seeding from a narrower projection would bake
    missing-attribute images into retained content). *)

val install_filter_seeded :
  t -> Query.t -> donors:Query.t list -> (install_how, string) result
(** Installs [q] seeded from the union of the stored [donors]' entries
    evaluated under [q] (deduplicated by DN), then reconciled by
    the repair ladder ({!Ldap_resync.Consumer.repair}) — only the
    segments the seed got wrong ship.  Donors not stored or with
    insufficient attribute projections are ignored; with no usable
    donor the install is a plain cold fetch, and when the walk fails
    the ladder fetches cold ([Cold] either way). *)

val stored_filters : t -> Query.t list
(** Every stored query, in the reverse of {!consumers}' order. *)

val consumers : t -> (Query.t * Ldap_resync.Consumer.t) list
(** Every stored query with its consumer, in the order of
    {!Ldap_containment.Containment_index.fold} over the replica's index
    — the order a poll round visits them in, which fixes the order of
    the engine's latency draws.  The list is kept, not rebuilt: reading
    it allocates nothing. *)

val generation : t -> int
(** A counter that changes whenever the stored filter set does: every
    install (cold, rescoped or seeded), removal and recovered filter
    bumps it.  A caller that derives something from the stored set —
    the controller's coverage memo, a node session's resolved consumer
    — keeps it while the generation it was derived at is current. *)

val covers : t -> Query.t -> bool
(** Whether some stored query contains [q] (region, attributes and
    filter) as {!Ldap_containment.Query_containment.contained} decides,
    proved through the replica's containment index
    ({!Ldap_containment.Containment_index.covers}).  Unlike {!answer}
    it asks nothing of the attributes the stored content carries, and
    its checks do not count toward {!comparisons}. *)

val filter_count : t -> int
(** Stored filters plus cached user queries — the section 7.4 x-axis. *)

val size_entries : t -> int
(** Number of distinct entries held across all stored filters (cached
    user-query results excluded, mirroring the paper's replica-size
    accounting). *)

val estimate_size : t -> Query.t -> int
(** Entries the upstream currently holds for the query: the size
    estimate used by benefit/size selection (section 6.2).  0 when the
    upstream endpoint has vanished. *)

val answer : t -> Query.t -> Replica.answer
(** Answers the query from stored or cached content when containment
    holds; referral otherwise.  On a miss the caller fetches from the
    master and may install the result in the window cache with
    {!record_miss_result} (section 7.4's cached user queries). *)

val containing_consumer :
  t -> Query.t -> (Query.t * Ldap_resync.Consumer.t) option
(** The stored query containing [q] whose widened attribute set lets
    [q] be evaluated locally, with its consumer — the admission and
    serving lookup an intermediate topology node runs for downstream
    subscriptions.  [None] means the subscription must be referred
    upstream. *)

val consumer_for : t -> Query.t -> Ldap_resync.Consumer.t option
(** The consumer of exactly this stored query, if installed. *)

val record_miss_result : t -> Query.t -> Entry.t list -> unit
(** Caches the master's answer to a missed user query in the window
    cache (no synchronization — section 7.4). *)

val sync_async : t -> (unit -> unit) -> unit
(** One poll round over all stored filters (resync traffic): the
    filters are polled one after another with
    {!Ldap_resync.Consumer.sync_async} (one in-flight exchange per
    replica), and the continuation fires when the round completes.  A
    filter whose poll exhausts its retry budget is left stale (and
    counted in {!Stats.t.sync_failures}) rather than aborting the
    round. *)

val sync : t -> unit
(** {!Ldap.Network.await} of {!sync_async}. *)

val sync_where : t -> (Query.t -> bool) -> unit
(** {!sync} restricted to the stored filters satisfying the predicate.  This is
    the flexibility section 3.2 attributes to the filter model: each
    object type (filter) can have its own consistency level, e.g.
    location filters refreshed rarely and person filters often —
    something a subtree replica mixing both cannot express. *)

val comparisons : t -> int
(** Total containment comparisons performed (stored + cached). *)

(** {1 Durability}

    A durable replica keeps one meta store (the slot-numbered table of
    installed filters) plus one consumer store per stored filter on a
    shared {!Ldap_store.Medium}, all under a common name prefix.
    Installs and removals are journaled; each consumer journals the
    replies it applies.  {!open_store} over a medium a restarted
    replica left behind restores it — index, content and resume
    cookies — without re-fetching, so the first poll after a restart
    resumes ReSync from the durable cookie instead of reloading
    content. *)

(** Per-filter recovery outcome, as reported by [ldapctl store]. *)
type filter_recovery = {
  fr_query : Query.t;  (** The stored (un-widened) query. *)
  fr_slot : int;  (** Slot number = consumer store name suffix. *)
  fr_cookie : string option;  (** Last durable resume cookie. *)
  fr_entries : int;  (** Entries recovered into the content. *)
  fr_replayed : int;  (** WAL records replayed over the snapshot. *)
  fr_truncated : bool;  (** A torn WAL tail was truncated. *)
  fr_truncation_point : int;
      (** Byte offset where replay stopped (= WAL length when clean). *)
  fr_stale : int;
      (** WAL records discarded because they belonged to a generation
          other than the recovered snapshot's. *)
  fr_wal_bytes : int;  (** WAL size after recovery. *)
  fr_snapshot_bytes : int;  (** Snapshot size. *)
  fr_resync : Ldap_resync.Consumer.repair option;
      (** [None] unless recovery found the WAL truncated or stale, or
          no snapshot at all (every slot is checkpointed when its store
          is opened, so a missing one means its files were lost), in
          which case the filter was brought back in sync {e before}
          the replica serves reads, by the repair ladder
          ({!Ldap_resync.Consumer.repair}): the step that did it. *)
}

(** Whole-replica recovery outcome. *)
type recovery_report = {
  meta_replayed : int;  (** Meta-store WAL records replayed. *)
  meta_truncated : bool;  (** Meta WAL tail was truncated. *)
  filters : filter_recovery list;  (** One per recovered filter, by slot. *)
}

val detach_store : t -> unit
(** Stops journaling everywhere (meta and consumers).  A simulated
    crash detaches the zombie in-memory replica so in-flight activity
    finishing after the crash cannot touch the durable state captured
    at crash time. *)

val open_store :
  ?sync:bool -> t -> Ldap_store.Medium.t -> prefix:string -> (recovery_report, string) result
(** Makes the replica durable on the medium under [prefix], by
    {!Ldap_store.Store.open_state}'s rule on its meta store.  Over an
    empty medium, already installed filters get slots and
    checkpointed consumer stores, and the report lists no filter.
    Over a non-empty one the replica, which must hold no filter yet,
    is restored: the meta store's slot table, then each slot's
    consumer (snapshot + WAL replay, torn tails truncated), each
    registered in the containment index and reported; a damaged slot
    is repaired before the call returns (see [fr_resync]).
    Either way installs, removals and replies are journaled from then
    on.  [sync] (default true) controls per-record fsync of every
    store; reopen a restarted replica with the [sync] it ran with. *)

val repair_all : t -> recovery_report -> recovery_report
(** Runs the repair ladder ({!Ldap_resync.Consumer.repair}) over every
    stored filter in {!consumers}' order, whatever [report]'s damage
    flags said — for a restart known to have lost updates — except a
    filter whose [fr_resync] is already set: {!open_store} repaired
    that one, and it keeps its entry.  Returns [report] with each
    repaired filter's [fr_resync], [fr_cookie] and [fr_entries] as the
    repair left them. *)

val checkpoint : t -> unit
(** Checkpoints the meta store and every consumer store (snapshot +
    WAL reset).  No-op without an opened store. *)
