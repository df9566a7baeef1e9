(** Master (supplier) side of the ReSync protocol (section 5.2).

    The master serves filter-synchronization sessions against a
    {!Ldap.Backend}.  A session is identified by a cookie and remembers
    the CSN up to which the replica is synchronized.  Three history
    mechanisms are implemented; the paper's contribution is
    [Session_history], with [Changelog] and [Tombstone] as the
    baselines whose shortcomings section 5.2 discusses:

    - [Session_history]: each committed update is classified against
      every live session's filter using the pre/post images, and the
      resulting actions are buffered per session.  Replay is minimal
      (coalesced per DN) and deletes are exact.
    - [Changelog]: replay reads the backend's update log
      ({!Ldap.Backend.log_since}) but uses only each record's
      operation, DN, changed attributes and the entry's current
      state.  A deleted entry's original attributes are unknown, so
      {e every} deletion is propagated; an entry modified out of the
      content can only be detected conservatively.
    - [Tombstone]: replay reads the same log for DN-only tombstones —
      the deleted DNs and renamed entries' old DNs, newest first — and
      scans current entries by modification time; pre-images are not
      used, with the same conservative consequences.

    The two baselines keep no history of their own: the log is the
    backend's, retained as long as its change spine retains it.  When
    it no longer reaches back to a session's CSN
    ({!Ldap.Backend.log_complete_since} fails), or when a cookie is
    unknown, the master falls back to the degraded mode of eq. (3): it
    sends full entries for content members changed since the cookie's
    CSN and [retain] actions for unchanged members; the replica prunes
    the rest.  This avoids a full reload.

    The same fallback repairs disrupted sessions: a cookie whose CSN
    differs from the CSN the session advanced to means a reply (or a
    run of persist pushes) was lost in transit after the master
    recorded it as delivered — the per-session history for that
    interval is gone, so the master discards the session and answers
    degraded from the CSN the consumer actually acknowledges, instead
    of silently resuming with a gap.

    Sessions, cookies, the request path, expiry and commit dispatch
    with its bounded persist queues are the shared {!Server}'s; a
    master is its backend history source, which admits every query. *)

type strategy = Session_history | Changelog | Tombstone

type dispatch = Server.dispatch = Routed | Naive
(** See {!Server.dispatch}. *)

type t

type history = private {
  mutable pending : Action.t list;  (** Newest first. *)
  mutable pending_len : int;  (** [List.length pending]. *)
}
(** A session's buffered [Session_history] actions, read-only outside
    this module. *)

val server : t -> history Server.t
(** The shared server this master is the history source of: its
    transport endpoint, the Merkle service and everything below that
    a [t] accessor forwards to. *)

val create : ?strategy:strategy -> ?dispatch:dispatch -> Ldap.Backend.t -> t
(** Subscribes to the backend's committed updates.  Default strategy is
    [Session_history]; default dispatch is [Routed].  Both bounds
    start unbounded. *)

val set_history_limit : t -> int option -> unit
(** Sets the per-session history high-water mark: a [Session_history]
    session whose pending buffer exceeds it has the buffer dropped and
    the session retired, so its next poll escalates to a degraded
    snapshot-diff resynchronization (eq. (3)) instead of the master's
    memory growing with the slowest consumer. *)

val backend : t -> Ldap.Backend.t
val handle : t -> Protocol.request -> Ldap.Query.t -> (Protocol.reply, string) result
(** Processes a resync search request without a push channel: a
    [Poll], whose reply carries the session's resume cookie, or a
    [Sync_end], which terminates the cookie's session and returns an
    empty reply.  A [Persist] session needs a channel and opens
    through {!Server.handle} on {!server}. *)

val push_overflows : t -> int
(** Persist sessions retired because their outbound queue grew past
    its bound ({!Server.push_overflows}). *)

val history_overflows : t -> int
(** Pending-history buffers dropped at the [history_limit] high-water
    mark (each retires its session into degraded escalation) — the
    observable the write-heavy long-haul sweep gates on. *)

val session_count : t -> int

val history_size : t -> int
(** Current size of the history the strategy replays from: buffered
    actions (session history), or the log records after the oldest
    live session's CSN (changelog) and the tombstones among them
    (tombstone) — none when no session is live.  The section 5.2
    comparison metric. *)

val pending_stats : t -> int * int
(** Per-session history residency as (total buffered actions, largest
    single session's buffer) — what the scale report shows operators
    watching for a slow consumer pinning master memory. *)

(** {1 Durability}

    With a store opened, every session-table transition — creation,
    removal, per-session pending history and acknowledged-CSN
    advances — is journaled, and {!checkpoint} snapshots the whole
    table.  The update log the baselines read is the backend's and
    is made durable with it.  A restarted master reopened over its
    store still recognizes the cookies it handed out, so surviving
    consumers resume incrementally instead of being forced through
    degraded resynchronization. *)

val open_store : t -> Ldap_store.Store.t -> (Ldap_store.Store.recovery, string) result
(** Opens the master's store by {!Ldap_store.Store.open_state}'s
    rule.  An empty store checkpoints the session table as it stands.
    A non-empty one is restored into the master, which must have no
    session yet: snapshot, then WAL replay, then journaling resumes.
    The master keeps the strategy and dispatch it was created with —
    a snapshot naming another strategy is an [Error] — and its
    [Routed] dispatch index is rebuilt from the restored sessions'
    filters.  Its backend's store may be opened before or after:
    restoring a backend notifies no subscriber.  Persistent push
    channels are not restored — they die with the process, and
    consumers re-establish them by presenting their cookies. *)

val checkpoint : t -> unit
(** Snapshots the session table (strategy, sessions with pending
    history) and resets the WAL.  No-op without a store.  Images and
    logs written when the master kept its own tombstone list still
    restore; the list is skipped. *)
