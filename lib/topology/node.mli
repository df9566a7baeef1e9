(** An intermediate node of a cascading replication topology: a filter
    replica that is simultaneously a ReSync master for the tier below.

    The node synchronizes a set of {e cover} queries from its upstream
    (root master or another node) exactly like any filter replica, and
    registers itself as a {!Ldap_resync.Transport} endpoint so
    downstream consumers can open ReSync sessions against it.  A
    downstream subscription is admitted iff query containment proves it
    contained in one of the node's stored covers with the filter
    attributes locally available ({!Ldap_replication.Filter_replica.containing_consumer});
    otherwise the request is rejected with a referral to the node's own
    upstream, which the subscriber chases one tier up.

    Cookies issued by the node use the same wire format as the root
    master's ({!Ldap_resync.Protocol.cookie_of}), with CSNs taken from
    the node's own upstream synchronization point — downstream progress
    is therefore bounded by how far the node itself has synchronized,
    and a cookie minted at any tier remains meaningful at any other
    after {!Ldap_resync.Protocol.reparent_cookie} translation.

    Unlike the root master, the node keeps no per-session action
    history: its replica content {e is} the history.  Each session
    holds a cursor on the stored consumer's {!Ldap.Content_store}
    change spine plus a table of sent image hashes; a poll walks only
    the DNs mutated since the cursor — O(diff in the stored content),
    not O(directory) — with the hash table deciding Add vs Modify vs
    no-op per changed DN.  A cursor that fell off the trimmed spine
    rebuilds with one full diff against the hash table and resumes
    streaming.  Containment is proved once per session, when it is
    created: a poll from a live session, for its own query, at the
    CSN it was handed, whose stored query is still installed, goes
    straight to its cursor.  The session looks its stored query's
    consumer up again only when the replica's
    {!Ldap_replication.Filter_replica.generation} moved since it last
    did; a consumer replaced meanwhile (the query removed and
    installed again, or restored by a durable reopen) has a new
    content store, so the session's next reply rescans it against the
    sent-image table.  Sessions presenting an unknown cookie —
    or one whose CSN the node cannot match, or whose stored query was
    removed — are re-admitted and answered in degraded mode (eq. (3))
    from the cookie's CSN.
    Persist-mode sessions are relayed live: the replica's change
    observer classifies each upstream-applied change against the
    persistent sessions — routed through a
    {!Ldap_containment.Predicate_index} over their filters unless
    [Naive] dispatch is selected — and pushes the resulting actions.

    Sessions, cookies, the request path and the persist queues are the
    shared {!Ldap_resync.Server}'s: a node is its spine-cursor history
    source plus admission by containment, and its persist queues are
    bound 0 — a downstream that stops draining is cut at once. *)

open Ldap

type t

val create :
  ?dispatch:Ldap_resync.Server.dispatch ->
  Ldap_resync.Transport.t ->
  host:string ->
  upstream:string ->
  t
(** Creates the node's replica over the transport, wires the persist
    relay, and registers the node as endpoint [host].  [dispatch]
    (default [Routed]) selects predicate-indexed or naive fan-out for
    the persist relay.

    The endpoint serves downstream resync exchanges through
    {!Ldap_resync.Server.handle}.  A non-admitted subscription fails
    with a referral error (see {!referral_of_error}).  The node reads
    no clock: a harness that wants serve times wraps the endpoint (as
    the scale sweep does).  The endpoint also answers Merkle
    anti-entropy walk steps from the node's own replica content, with
    the same referral — the tier-by-tier cascade: a leaf repairs
    against its node while the node independently repairs against its
    parent.
    @raise Invalid_argument if no endpoint is registered at
    [upstream]. *)

val replica : t -> Ldap_replication.Filter_replica.t
(** The node's own consuming side. *)

val host : t -> string
val upstream : t -> string
(** The endpoint this node currently synchronizes from. *)

val stats : t -> Ldap_replication.Stats.t
(** Shared with the replica: the [sync_*]/[fetch_*] counters of the
    link to this node's upstream. *)

val install_cover : t -> Query.t -> (unit, string) result
(** Starts replicating a cover query from the upstream; downstream
    subscriptions contained in it become admissible. *)

val sync_async : t -> (unit -> unit) -> unit
(** One poll round against the upstream
    ({!Ldap_replication.Filter_replica.sync_async}); the continuation
    fires when it completes.  Changes applied here are relayed
    immediately to persistent downstream sessions; polling downstream
    sessions pick them up at their next poll. *)

val sync : t -> unit
(** {!Ldap.Network.await} of {!sync_async}. *)

val retarget : t -> upstream:string -> unit
(** Re-parents the node (cookie translation included) — used when its
    upstream dies.  Downstream sessions are untouched and survive. *)

val session_count : t -> int
(** Live downstream sessions at this node. *)

val cursor_stats : t -> int * int * int
(** Incremental-serving cost counters as (polls served, DNs/entries
    scanned serving them, spine-rescan fallbacks).  Deterministic —
    the scale sweep's O(diff) evidence: scanned stays proportional to
    the change volume, not the directory size, and rescans stay 0
    while cursors keep up with the spine. *)

val cursor_depths : t -> int list
(** Per-session lag behind the stored consumer's change spine, in
    spine events (store revision minus the session's cursor). *)

val seen_residency : t -> int
(** Total sent-image hash-table entries across sessions — the node's
    per-session serving memory, one DN + hash per member per session
    rather than full entry snapshots. *)

val referral_of_error : string -> string option
(** The LDAP URL inside a referral rejection this node produced, or
    [None] for any other error message. *)
