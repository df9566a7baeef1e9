(** A leaf consumer of a cascading topology: a filter replica attached
    to one parent endpoint — an intermediate {!Node} or the root master
    directly — with referral chasing at subscription time and cheap
    re-parenting when its parent dies. *)

open Ldap

type t

val create : Ldap_resync.Transport.t -> name:string -> parent:string -> t
(** A leaf named [name] synchronizing from [parent], with no query
    cache.
    @raise Invalid_argument if no endpoint is registered at [parent]. *)

val replica : t -> Ldap_replication.Filter_replica.t
(** The underlying filter replica holding the subscribed content. *)

val name : t -> string
(** The host name the leaf was created under. *)

val parent : t -> string
(** The endpoint this leaf currently synchronizes from. *)

val stats : t -> Ldap_replication.Stats.t
(** Upstream-facing traffic of this leaf — the per-link byte source of
    the tree-fanout experiment. *)

val subscribe : t -> Query.t -> (unit, string) result
(** Installs the query as a replicated filter at the current parent.
    If the parent rejects it with a referral (no stored cover contains
    it), the leaf re-parents to the referred host and retries, up to
    4 tiers — mirroring the search referral
    dance of Figure 2 at subscription time. *)

val sync_async : t -> (unit -> unit) -> unit
(** One poll round against the parent
    ({!Ldap_replication.Filter_replica.sync_async}): the continuation
    fires when every subscription's exchange has completed. *)

val sync : t -> unit
(** {!Ldap.Network.await} of {!sync_async}. *)

val merkle_sync :
  t ->
  (Query.t * (Ldap_antientropy.Exchange.report, string) result) list
(** Merkle anti-entropy reconciliation of every subscription against
    the current parent
    ({!Ldap_replication.Filter_replica.merkle_sync_all}) — the
    recovery mode used when the leaf's durable state is damaged or its
    cookie rejected; ships only drifted segments. *)

val acked_csn : t -> Ldap.Csn.t
(** The CSN this leaf has acknowledged across all subscriptions — the
    minimum of its resume cookies' CSNs, since a leaf is only as fresh
    as its stalest filter.  [Csn.zero] before the first successful
    exchange.  The staleness metric of the latency sweep measures how
    long an update's CSN takes to be covered by this value. *)

val reparent : t -> parent:string -> unit
(** Re-attaches the leaf (cookie translation included): the next poll
    resynchronizes degraded from the acknowledged CSN. *)

val subscriptions : t -> Query.t list

val content : t -> Query.t -> Entry.t list
(** Current local content of one subscription (empty when not
    installed) — what convergence checks compare against the root. *)

val content_seq : t -> Query.t -> Entry.t Seq.t
(** Streaming form of {!content} over the consumer's backing store —
    no list copy; what scale-sweep convergence evaluation uses. *)

(** {1 Durability} *)

val attach_store : ?sync:bool -> t -> Ldap_store.Medium.t -> unit
(** Makes the leaf's replica durable on the medium, under the leaf's
    name as prefix (see {!Ldap_replication.Filter_replica.attach_store}). *)

val checkpoint : t -> unit
(** Checkpoints every store of the leaf's replica. *)

val detach_store : t -> unit
(** Stops journaling (see
    {!Ldap_replication.Filter_replica.detach_store}). *)

val recover :
  ?sync:bool ->
  Ldap_resync.Transport.t ->
  name:string ->
  parent:string ->
  Ldap_store.Medium.t ->
  (t * Ldap_replication.Filter_replica.recovery_report, string) result
(** Rebuilds a restarted leaf from its medium: subscriptions, content
    and resume cookies come from durable state, so the next poll
    resumes ReSync incrementally instead of re-fetching.
    @raise Invalid_argument if no endpoint is registered at [parent]. *)
