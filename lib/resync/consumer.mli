(** Consumer (replica) side of a ReSync session: the materialized
    content of one replicated query.

    The consumer applies the actions of each reply to its local entry
    set and tracks the resume cookie.  After any successful exchange
    the entry set equals the master's content at the reply's CSN —
    the convergence guarantee the protocol provides (verified by the
    property tests).

    All synchronization goes through a {!Transport}: exchanges can be
    lost, refused or cut by a partition, and the consumer recovers by
    bounded retry with exponential backoff and — when its session
    state at the master is gone or ahead of what it acknowledged — by
    accepting a full or degraded resynchronization reply.  There is
    no master-direct form: a caller holding a master registers it on
    its scenario's transport ({!Transport.add_master}) and polls with
    {!sync_over}, so every exchange is an event on that network's
    engine. *)

open Ldap

type t

(** The result of one successful synchronization. *)
type outcome = {
  reply : Protocol.reply;
  attempts : int;  (** Exchanges sent, including the successful one. *)
  backoff : int;  (** Total backoff ticks waited between attempts. *)
  resynced : bool;
      (** An established session (cookie held) was answered with
          [Initial_content] or [Degraded]: the master could not replay
          incrementally and the consumer recovered by resync. *)
}

type sync_error =
  | Exhausted of { attempts : int; last : Network.failure }
      (** Retry budget spent; the consumer keeps its cookie and
          content and may try again later. *)
  | Rejected of string  (** The master refused the request. *)

val sync_error_to_string : sync_error -> string

val create : Query.t -> t
(** Fresh consumer for one subscription query, with empty content. *)

val query : t -> Query.t
(** The subscription query. *)

val cookie : t -> string option
(** Opaque resume cookie from the last reply; [None] before the first
    sync. *)

val cookie_csn : t -> Csn.t option
(** The CSN embedded in {!cookie}; [None] without a cookie or when it
    does not parse ({!Protocol.parse_cookie}).  The parse is cached
    and redone only when a different cookie string is stored, so
    reading it on every poll costs a comparison. *)

val set_cookie : t -> string option -> unit
(** Overrides the stored resume cookie.  Used when a consumer is
    re-parented to a different upstream: the topology layer installs
    the {!Protocol.reparent_cookie} translation of the old cookie, so
    the first exchange with the new upstream resynchronizes degraded
    from the acknowledged CSN instead of reloading from scratch. *)

val set_on_change :
  t -> (before:Entry.t option -> after:Entry.t option -> unit) -> unit
(** Registers an observer called once per local content change —
    upserts, deletes, and the silent prunes of a degraded or initial
    resynchronization (which transmit no per-entry delete).  [before]
    is the entry previously held under the DN, [after] the entry now
    held; never both [None].  This is how an intermediate topology node
    learns what changed in its replica content so it can relay the
    change downstream. *)

val apply_reply : t -> Protocol.reply -> unit
(** Applies all actions.  For a [Degraded] reply, entries that were
    neither retained nor upserted are pruned (eq. (3)).  With a store,
    the reply is journaled first as one WAL record, unless it is an
    [Incremental] reply with no action whose cookie is absent or the
    one held: replaying that would change nothing. *)

val sync_async :
  ?from:string ->
  t ->
  Transport.t ->
  host:string ->
  ((outcome, sync_error) result -> unit) ->
  unit
(** One poll against the master at [host] over
    {!Transport.exchange_async}, with up to 4 attempts; attempt [i]
    failing waits [2^(i-1)] ticks on a {!Ldap.Network.after} timer, so
    the outcome's [backoff] stat equals the virtual time spent
    waiting.  A reply lost
    after the master processed the poll is recovered on the retry: the
    master sees the stale acknowledged CSN in the cookie and answers
    with a degraded resynchronization, which the consumer applies.
    The continuation fires with the outcome. *)

val sync_over :
  ?max_attempts:int ->
  ?from:string ->
  t ->
  Transport.t ->
  host:string ->
  (outcome, sync_error) result
(** {!Ldap.Network.await} of {!sync_async}, with up to
    [max_attempts] (default 4) attempts. *)

val merkle_sync :
  ?config:Ldap_antientropy.Tree.config ->
  t ->
  Transport.t ->
  host:string ->
  (Ldap_antientropy.Exchange.report, string) result
(** Merkle anti-entropy reconciliation against the endpoint at [host]:
    walks root → branch → segment hashes over
    {!Transport.tree_exchange} and ships only the entries of differing
    segments (see {!Ldap_antientropy.Exchange.reconcile}).  The repair
    is applied through {!apply_reply} as one synthetic incremental
    reply per round — deletes, upserts and the server's fresh resume
    cookie in a single WAL record — after which the consumer polls
    incrementally from the new cookie.  The previously held cookie's
    session is abandoned at the endpoint once the walk converges.
    Recovery goes through {!repair}, which falls back cold when the
    walk fails. *)

(** Which step of {!repair} brought the consumer level with its
    upstream. *)
type repair =
  | Merkle of Ldap_antientropy.Exchange.report  (** The walk converged. *)
  | Cold of {
      walk : (Ldap_antientropy.Exchange.report, string) result;
          (** The walk that failed or did not converge; a report still
              carries its wire cost. *)
      fetch : (outcome, sync_error) result;  (** The cold fetch after it. *)
    }

val repair : ?from:string -> t -> Transport.t -> host:string -> repair
(** The one escalation past ReSync's degraded resync, for a consumer
    whose durable state is damaged or known to have lost updates: a
    {!merkle_sync} walk, and when it errors or does not converge, the
    cookie dropped and the content fetched cold with {!sync_over}
    before the call returns. *)

val connect_persist :
  ?from:string ->
  ?observe:(Action.t -> unit) ->
  t ->
  Transport.t ->
  host:string ->
  (outcome, sync_error) result
(** Establishes (or re-establishes) a persist-mode session: the push
    callback applying actions to this consumer is registered at the
    master through the transport.  Reconnection presents the stored
    cookie, so a master that pushed actions the consumer never
    received answers with a degraded resync instead of silently
    resuming.  [observe] is called after each applied push
    (accounting hooks, tests).

    The {!Ldap.Network.await} of {!Transport.connect_async} attempts
    under the same retry loop and backoff timer as {!sync_async}, with
    up to 4 attempts. *)

val persist_alive : t -> bool
(** Whether the current persistent connection is still delivering.
    A lost push or partition kills it; detection happens when traffic
    flows, like a half-open TCP connection. *)

val pause_connection : t -> unit
(** Stops draining the persistent connection ({!Transport.pause}):
    server-side sends start answering [Push_stalled], exercising the
    master's bounded outbound queues.  No-op without a connection. *)

val resume_connection : t -> unit
(** Clears {!pause_connection}.  Actions the master queued while the
    consumer was stalled arrive when the master next touches the
    session ({!Server.flush_pushes} or an update dispatch). *)

val ensure_persist :
  ?from:string ->
  t ->
  Transport.t ->
  host:string ->
  (outcome option, sync_error) result
(** [Ok None] when the connection is alive; otherwise reconnects via
    {!connect_persist} and returns its outcome. *)

val entries : t -> Entry.t list
(** The held content as a list (store slot order).  Prefer
    {!entries_seq} on hot paths — this copies. *)

val entries_seq : t -> Entry.t Seq.t
(** The held content as a streaming sequence over the backing
    {!Ldap.Content_store} — what convergence checks iterate, with no
    list copy.  Do not mutate the
    consumer while consuming it. *)

val content : t -> Content_store.t
(** The backing content store itself.  Replicas answer contained
    queries from its search ({!Ldap.Content_store.search}); topology
    nodes hold cursor positions on its change spine to serve
    downstream snapshot-diffs in O(diff); its
    {!Ldap.Content_store.approx_bytes} feeds memory residency
    reports. *)

val dns : t -> Dn.Set.t
val size : t -> int

(** {1 Durability}

    With a store opened, every applied reply is journaled as {e one}
    WAL record carrying the new cookie and all actions — the
    atomicity boundary that keeps the durable cookie from running
    ahead of durable content when a crash lands mid-apply; persist
    pushes journal one record per action.  A restarted consumer
    reopened over its store resumes ReSync from the durable cookie
    instead of re-fetching. *)

val open_store : t -> Ldap_store.Store.t -> (Ldap_store.Store.recovery, string) result
(** Opens the consumer's store by {!Ldap_store.Store.open_state}'s
    rule: an empty store checkpoints the consumer as it stands (the
    content an initial fetch already brought in, say); a non-empty
    one is restored into it — snapshot, then WAL replay with torn
    tails truncated — which must then hold no entry and no cookie.
    Journaling resumes either way.  Returns what recovery read. *)

val detach_store : t -> unit
(** Stops journaling and drops the checkpoint cache (see
    {!checkpoint}).  A simulated crash detaches the zombie in-memory
    consumer so nothing it does afterwards can touch the durable state
    captured at crash time. *)

val checkpoint : t -> unit
(** Snapshots cookie + entries and resets the WAL.  No-op without an
    opened store.

    The image is [SEQUENCE { SEQUENCE { entry... }, cookie option }]
    with entries in ascending DN order.  Each entry's DER image is the
    one the entry keeps ({!Ldap.Ber_codec.Der.entry}): the journal
    kept it when it wrote the entry, so an entry version is encoded
    once, and only an entry no journal wrote (one restored from a
    snapshot, say) is encoded here.  A consumer with a store keeps,
    from its last checkpoint, the live entries' canonical DNs in
    order, their images (shared with the entries, not copied) and
    each image's CRC-32, and refreshes them from the slot ids its
    content store's change spine names
    ({!Ldap.Content_store.changes_since}): a slot that joins or leaves
    is placed or removed by binary search, a changed one's CRC is
    recomputed, and the snapshot CRC is folded from the kept ones
    ({!Ldap_store.Crc32.combine}) with only the framing bytes read.
    The cost is in proportion to the entries changed since the last
    checkpoint, plus one copy of the image.  The first checkpoint
    after opening a store and any checkpoint after the spine was
    trimmed past the last one rebuild everything.  The cache is three
    arrays of one word per live entry; {!detach_store} drops it. *)

