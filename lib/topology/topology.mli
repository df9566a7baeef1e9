(** Cascading replication topologies: a root master, optional tiers of
    intermediate {!Node}s re-serving their replica content, and {!Leaf}
    consumers at the bottom.

    The builder wires everything over one fault-injectable
    {!Ldap_resync.Transport}; synchronization proceeds in rounds with
    children polling before parents, so an update committed at the root
    propagates exactly one tier per round and convergence lag equals
    tier depth.  Killing a node removes its endpoint; the next round
    {!heal}s the orphans by re-attaching them to their closest live
    ancestor with cookie translation, so they resynchronize degraded
    from their acknowledged CSN instead of reloading. *)

open Ldap

(** Interior wiring of the built topology. *)
type shape =
  | Star  (** Every leaf attaches directly to the root. *)
  | Chain of int
      (** A line of [n] nodes under the root; leaves attach to the
          deepest one (convergence lag [n+1]). *)
  | Tree of { arity : int }
      (** [arity] nodes under the root; leaves attach round-robin
          (the 2-tier tree of the tree-fanout experiment). *)

type t

val create : ?root:string -> Backend.t -> t
(** A topology holding only the root master (registered as endpoint
    [root], default ["root"]) over a fresh fault-free network. *)

val build :
  ?faults:Network.Faults.t ->
  shape:shape ->
  covers:Query.t list ->
  leaf_queries:Query.t list ->
  Backend.t ->
  (t, string) result
(** Builds the interior per [shape] — every node storing the [covers]
    set — then attaches one leaf per element of [leaf_queries].  Fails if a cover install or a subscription
    fails (a leaf query no cover contains chases its referral to the
    root, which admits everything). *)

val add_node :
  t -> name:string -> parent:string -> covers:Query.t list -> (Node.t, string) result
(** Creates node [name] under [parent], registered as an endpoint of
    the same name, and installs the [covers] set.  Fails, leaving no
    endpoint behind, if a cover install fails. *)

val add_leaf : t -> name:string -> parent:string -> Query.t -> (Leaf.t, string) result
(** Creates the leaf and subscribes it (with referral chasing); on a
    durable topology the leaf is opened over its own medium first, so
    its initial content is journaled. *)

val transport : t -> Ldap_resync.Transport.t
(** The shared fault-injectable transport every tier exchanges over. *)

val master : t -> Ldap_resync.Master.t
(** The root ReSync master. *)

val root : t -> string
(** The root master's endpoint name. *)

val network : t -> Network.t
(** The byte/latency-accounting network under the transport. *)

val nodes : t -> Node.t list
(** Live interior nodes (killed nodes are removed). *)

val leaves : t -> Leaf.t list
(** All attached leaf consumers. *)

val kill_node : t -> Node.t -> unit
(** Unregisters the node's endpoint mid-stream.  Its downstream
    sessions and its own upstream session die with it; orphans are
    re-parented by the next {!heal} (or {!sync_round}). *)

val heal : t -> unit
(** Re-parents every participant whose upstream endpoint vanished to
    its closest live ancestor, translating cookies so content is kept
    and the next poll resumes in degraded mode.  With {!drive_events}
    active, each healed participant's poll loop is poked — its
    generation is bumped, so the pending occurrence pops as a no-op and
    an in-flight poll does not reschedule, and a replacement polls
    immediately — so recovery starts at heal time instead of waiting
    out the remainder of the poll period. *)

val sync_round : t -> unit
(** {!heal}, then one poll round children-before-parents: all leaves,
    then interior nodes deepest tier first. *)

val drive_events :
  ?on_leaf_poll:(Leaf.t -> start:int -> finish:int -> unit) ->
  t ->
  Ldap_sim.Engine.t ->
  poll_every:int ->
  until:int ->
  unit
(** Registers one self-rescheduling poll loop per participant (every
    leaf and every interior node) on the engine: polls from different
    tiers interleave in virtual time, so a tree's extra tier shows up
    as measurable propagation delay instead of vanishing inside a
    sequential round.  Start phases are staggered across the poll
    period and each next poll is scheduled [poll_every] ticks after the
    previous one completes; loops stop once the next occurrence would
    pass [until], keeping run-to-quiescence terminating.
    [on_leaf_poll] fires at each completed leaf poll with its virtual
    start/finish times — the hook the latency/staleness sweep samples.
    The engine is the topology's own clock,
    [Network.engine (network t)]: a restarted leaf's loop is launched
    on it too.  The caller runs the engine afterwards.
    @raise Invalid_argument if [poll_every <= 0] or [engine] is not
    the network's engine. *)

(** {1 Crash and restart}

    Complements {!kill_node}'s heal-by-reparent: a {e leaf} can crash
    — its poll loop stops, its durable medium takes the configured
    crash transition — and later restart, either recovered from
    durable state (resuming ReSync from the durable cookie) or cold
    (re-subscribing with full fetches).

    Every participant has a generation number.  Crashing it, poking it
    ({!heal}) or restarting it bumps the number, and a poll loop
    launched under an older number does nothing: its queued occurrence
    still pops at its virtual time, as a no-op, and its in-flight poll
    completes without reporting or rescheduling. *)

val enable_durability :
  ?faults:Ldap_store.Medium.Faults.t -> ?sync:bool -> t -> unit
(** Gives every leaf (present and future) its own in-memory durable
    medium and opens the leaf over it ({!Leaf.open_store}): a present
    leaf's content is checkpointed, a future one is opened before its
    first fetch.  [faults] is shared across media —
    scripted crash outcomes are consumed in crash-call order.  [sync]
    (default true) controls per-record fsync; with [sync:false] only
    checkpoints are durable and a crash loses (or tears) the journal
    tail. *)

val checkpoint_leaves : t -> unit
(** Checkpoints every live leaf's stores. *)

val crash_leaf : t -> Leaf.t -> unit
(** Crashes the leaf: stops its poll loop, imposes the crash
    transition on its medium (unsynced bytes lost or torn per the
    fault schedule), detaches the zombie in-memory object and removes
    it from {!leaves}.  The master keeps the leaf's sessions until
    expiry, exactly like a real silent process death.
    @raise Invalid_argument if the leaf is already down. *)

(** How a restarted leaf recovers its content. *)
type restart_mode =
  | Resume
      (** Durable recovery; anti-entropy only if the store itself
          reports damage (torn or stale WAL). *)
  | Merkle
      (** Durable recovery, then the repair ladder over every
          subscription regardless of damage flags
          ({!Ldap_replication.Filter_replica.repair_all}) — for a
          restart known to have silently lost updates (e.g. an
          unsynced WAL).  A subscription whose Merkle walk fails
          re-fetches cold before the restart returns; the report's
          [fr_resync] names the step that repaired each one. *)
  | Cold
      (** Ignore durable state: re-subscribe with full fetches, over a
          fresh medium when the topology is durable. *)

val restart_leaf :
  ?mode:restart_mode ->
  t ->
  name:string ->
  (Leaf.t * Ldap_replication.Filter_replica.recovery_report option, string)
  result
(** Restarts a crashed leaf under its closest live parent: a fresh
    {!Leaf.create}.  With durability it is opened over the crashed
    leaf's medium (report returned) per [mode] (default [Resume]);
    without durable state — or with [mode = Cold] — it re-subscribes
    to the crashed leaf's queries with full initial fetches ([None]),
    journaled from the start onto a fresh medium under the same faults
    when the topology is durable, so a later durable restart resumes
    from what the cold leaf acknowledged.  Either way the leaf rejoins
    {!leaves}, and if {!drive_events} is active its poll loop
    resumes. *)

val leaf_converged : t -> Leaf.t -> bool
(** Whether each of the leaf's subscriptions holds exactly the
    content the root backend currently defines for it. *)

val rounds_to_converge : ?max_rounds:int -> t -> int option
(** Runs {!sync_round} until every leaf is {!leaf_converged}, returning the number of
    rounds needed ([Some 0] when already converged); [None] if
    [max_rounds] (default 16) rounds do not suffice. *)

val root_link_bytes : t -> int
(** Ber bytes that crossed links terminating at the root: the summed
    upstream traffic of participants currently attached to it — every
    leaf in a star, only the interior nodes in a tree. *)

(** Aggregated per-tier accounting for reports and the CLI. *)
type tier_summary = {
  tier : int;
  members : int;
  sessions : int;  (** Downstream ReSync sessions held at this tier. *)
  upstream_bytes : int;  (** Ber bytes members paid on their upstream links. *)
  served_bytes : int;  (** Ber bytes members served downstream. *)
}

val tier_summaries : t -> tier_summary list
(** One row per tier, shallowest first; tier 0 is the root (sessions =
    the master's live session count). *)
