(** The one ReSync server (section 5.2) behind every tier.

    ReSync is one protocol, and a cascading node is a ReSync master for
    the tier below it.  This module holds everything a server does
    whatever its history: the session table and its persist table, the
    [Routed]/[Naive] dispatch index, session ids (id 0 reserved),
    cookies, the activity clock and expiry, the request path —
    [Sync_end], the known-session fast path, initial content and the
    degraded fallback of eq. (3) — the Merkle anti-entropy service, and
    commit dispatch with one bounded push-queue policy.

    What differs between tiers is a {!source}: the per-session state,
    the content and history it serves, admission, and hooks on what the
    server delivers and acknowledges.  {!Master} is the backend source
    (the root and every shard master); [Ldap_topology.Node] is a
    replica source reading its content store's change spine. *)

open Ldap

type dispatch =
  | Routed
      (** Committed changes are routed through a
          {!Ldap_containment.Predicate_index} built over the live
          sessions' filters: only the sessions whose filter anchors are
          hit by the change's before/after images are classified, plus
          a fallback set for unanchorable filters.  Per-change cost is
          proportional to the affected sessions, not the session count.
          Observably equivalent to [Naive]. *)
  | Naive
      (** Every committed change is offered to every session — the
          baseline linear fan-out, kept for comparison and for the
          equivalence tests. *)

(** A live session.  [state] is the source's; the other fields are the
    server's, which a source only reads (recovery replay excepted). *)
type 's session = {
  id : int;
  query : Query.t;
  state : 's;
  mutable synced_csn : Csn.t;  (** The CSN the consumer was last handed. *)
  mutable last_active : int;  (** Activity clock at the last request. *)
  mutable push : Protocol.push_channel option;  (** Persist channel. *)
  outq : Action.t Queue.t;  (** Stalled pushes, oldest first. *)
  mutable outq_len : int;
  mutable minted : Csn.t;  (** The CSN [cookie] carries. *)
  mutable cookie : string;  (** The last cookie minted. *)
}

(** A history source: what one tier adds to the shared server. *)
type 's source = {
  admit : Query.t -> ('s, string) result;
      (** The state of a new session on the query, or the refusal sent
          back (a node's referral). *)
  resumable : 's -> bool;
      (** Whether a live session presenting its own cookie takes the
          fast path; otherwise its request is re-admitted. *)
  sync_point : 's -> Csn.t;
      (** The CSN a session is brought to by a reply (and starts at). *)
  members : 's -> Query.t -> Entry.t list;
      (** The entries the query selects from the source's content, with
          its attribute selection applied. *)
  reset : 's session -> Entry.t list -> unit;
      (** The session was handed these members as its whole content
          (initial, degraded or Merkle [Fetch]). *)
  incremental : 's session -> Action.t list option;
      (** The session's changes since its CSN, or [None] when the
          history no longer reaches back (the server then answers
          eq. (3) from that CSN). *)
  buffer : ('s session -> Action.t list -> bool) option;
      (** Keeps a commit's actions for a poll session until its next
          poll; [true] when the buffer passed its high-water mark, which
          retires the session.  [None]: poll sessions are not offered
          commits. *)
  pushed : 's session -> Action.t -> unit;
      (** Each action a commit classifies for a persist session, sent
          or not. *)
  acked : 's session -> history:bool -> unit;
      (** [synced_csn] advanced, by a reply or by a commit offered to a
          persist session; [history] when an incremental reply
          delivered the session's history. *)
  opened : 's session -> unit;  (** A session was created. *)
  closed : int -> unit;  (** The session with this id was removed. *)
}

type 's t

val create : ?queue_limit:int -> dispatch:dispatch -> 's source -> 's t
(** An empty server.  [queue_limit] bounds one persist session's
    outbound queue (default: unbounded; a node passes 0). *)

val handle :
  's t ->
  ?push:Protocol.push_channel ->
  Protocol.request ->
  Query.t ->
  (Protocol.reply, string) result
(** Serves one exchange.  [Sync_end] with a valid cookie removes the
    session and answers an empty reply; [Persist] needs [push].  A
    live session presenting the CSN it was handed for its own query
    gets its incremental reply.  Anything else is admitted first, then
    answered with initial content (no cookie) or, in a fresh session,
    degraded mode from the cookie's CSN.  Replies carry the session's
    cookie, minted again only when its CSN moved: a resume handle for
    polls, a reconnection handle for persistent sessions whose
    connection breaks.

    [push] receives a persist session's change notifications.  A send
    answered [Push_stalled] parks the action on the session's outbound
    queue; the queue drains ahead of new notifications on later
    updates and on {!flush_pushes}.  A queue growing past the bound
    {!set_queue_limit} sets — or a send answered [Push_gone] — closes
    the channel and retires the session, so the consumer's
    reconnection escalates to a degraded resync (eq. (3)) and a
    stalled leaf costs O(bound) memory instead of O(drift). *)

val abandon : 's t -> cookie:string -> unit
(** Removes the cookie's session, as [Sync_end] does: the client
    abandoned a persistent search. *)

val antientropy_serve :
  's t ->
  Ldap_antientropy.Exchange.request ->
  Query.t ->
  (Ldap_antientropy.Exchange.reply, string) result
(** Answers one Merkle walk step over the members an admitted query
    selects.  A [Fetch] mints a poll session at the sync point, handed
    the shipped content, so the consumer resumes incrementally. *)

val install :
  's t -> id:int -> Query.t -> 's -> synced:Csn.t -> last_active:int -> 's session
(** Enters a recovered session under its own id (no [opened] hook);
    later ids are allocated past it. *)

val restore : 's t -> next_id:int -> clock:int -> unit
(** Sets the id allocator and the activity clock from a snapshot. *)

val next_id : 's t -> int
(** The id the next session gets. *)

val clock : 's t -> int
(** Requests handled — the activity clock expiry measures idleness in. *)

val find : 's t -> int -> 's session option
(** The live session with this id. *)

val fold : 's t -> ('s session -> 'a -> 'a) -> 'a -> 'a
(** Folds over the live sessions, in no particular order. *)

val remove : 's t -> int -> unit
(** Removes a session; no-op for an unknown id. *)

val expire : 's t -> idle_limit:int -> unit
(** Removes sessions idle for at least [idle_limit] requests handled by
    this server (the paper's admin time limit, measured in protocol
    activity rather than wall clock to keep the simulation
    deterministic).  [~idle_limit:0] removes every session. *)

val session_count : 's t -> int
(** Live sessions. *)

val persistent_count : 's t -> int
(** Live sessions holding a push channel. *)

val dispatch : 's t -> Update.record -> unit
(** Offers one committed change, which brings its sessions to its CSN:
    the affected sessions first — persist sessions get it pushed, poll
    sessions get it buffered — then the unaffected persist sessions
    acknowledge the CSN.  A push the channel stalls joins the session's
    outbound queue; a queue past the bound, or a dead channel, closes
    the channel and retires the session once the dispatch ends. *)

val relay :
  's t ->
  only:('s session -> bool) ->
  csn:Csn.t ->
  before:Entry.t option ->
  after:Entry.t option ->
  unit
(** {!dispatch} of a change at [csn] that concerns only the persist
    sessions [only] selects, asked in persist-table order before each is
    offered the change — a node relaying one stored query's change. *)

val set_queue_limit : 's t -> int option -> unit
(** Adjusts the bound on one persist session's outbound push queue. *)

val flush_pushes : 's t -> unit
(** Re-attempts every stalled session's queued backlog — what a driver
    calls after a paused consumer resumes draining.  Queues also drain
    whenever an update dispatch touches their session. *)

val push_queue_stats : 's t -> int * int
(** Outbound-queue residency: (total queued, largest single queue). *)

val push_queue_peak : 's t -> int
(** Largest single outbound queue ever observed — with a queue bound
    set this never exceeds [limit + updates per dispatch], the
    O(bound) memory claim made observable. *)

val push_overflows : 's t -> int
(** Persist sessions retired for a queue past the bound. *)

val push_resets : 's t -> int
(** Persist sessions retired because a send found the channel dead. *)

val history_overflows : 's t -> int
(** Poll sessions retired because their buffer passed its mark. *)
