(** Simulated multi-server topology with one exchange path:
    {!rpc_send}, a generic request/reply exchange timed on the
    network's own discrete-event engine, and {!await}, which derives
    every synchronous exchange from its asynchronous form.  ReSync,
    anti-entropy, shard-router and client-search traffic all cross it.

    {!search} reproduces the distributed operation processing of
    Figure 2: a server that does not hold the target namespace answers
    with its default (superior) referral; one that does answers with
    entries plus continuation references, which the client chases with
    modified bases.  Each hop is one exchange, so the round trips of
    section 2.3's referral-cost argument are counted in [sync_rpcs].

    An optional {!Faults} schedule decides, per
    exchange, whether the request is lost before reaching the server,
    the server transiently refuses, or the reply is lost after the
    server processed the request — the three failure shapes the ReSync
    recovery paths (section 5) are designed around.  Fault decisions
    are deterministic: they come from an explicit script or from a
    caller-supplied roll function (seeded from [Dirgen.Prng] in the
    experiments), never from global randomness. *)

type t

type stats = {
  bytes : int;  (** The {!search} exchanges' share of [sync_bytes]. *)
  sync_rpcs : int;  (** RPC exchanges attempted, search hops included. *)
  sync_bytes : int;  (** RPC request/reply/push bytes, via {!Ber}. *)
  dropped_pdus : int;  (** Requests, replies and pushes lost to faults. *)
}

type failure =
  | Timeout  (** Request or reply lost in flight; the client cannot
                 tell which, so the server may or may not have
                 processed the exchange. *)
  | Unreachable of string  (** Unknown host or partitioned link. *)
  | Refused of string  (** Transient server-side refusal. *)

val failure_to_string : failure -> string

(** Deterministic fault schedules for {!rpc_send} and persistent pushes. *)
module Faults : sig
  type outcome = Deliver | Drop_request | Drop_reply | Refuse

  type t

  val create :
    ?drop_request:float ->
    ?drop_reply:float ->
    ?roll:(unit -> float) ->
    unit ->
    t
  (** Probabilistic schedule: each exchange draws one number from
      [roll] (expected in [[0, 1)], e.g. [fun () -> Prng.float prng 1.0])
      and maps it to an outcome by cumulative probability
      ([Drop_request], then [Drop_reply], else [Deliver]; [Refuse] is
      only scripted).  Without [roll] only scripted outcomes and
      partitions fire. *)

  val script : t -> outcome list -> unit
  (** Appends forced outcomes consumed — one per exchange or push —
      before any probabilistic roll.  The way tests stage exact
      failure sequences. *)

  val partition : t -> a:string -> b:string -> unit
  (** Severs the (undirected) link between two hosts until {!heal}. *)

  val heal : t -> a:string -> b:string -> unit

  val partitioned : t -> a:string -> b:string -> bool
  (** Whether the link between the two hosts is severed.  Cheap when
      no partition is set: no link key is built. *)

  val next_outcome : t -> outcome
  (** Consumes the next scripted outcome, or rolls.  Exposed for
      transport layers that deliver one-way traffic (persist pushes). *)
end

val create : unit -> t
(** An empty network: no hosts, zeroed counters, zero latency, and an
    engine of its own (seed 0, at time 0).  Every exchange and push
    crossing the network is an event on that engine. *)

val attach_engine : t -> Ldap_sim.Engine.t -> unit
(** Replaces the network's engine with the given one, e.g. a seeded
    engine a sweep drives.  The replaced engine is first run to
    quiescence, so no event queued on it is lost; raises
    [Invalid_argument] if it is running. *)

val engine : t -> Ldap_sim.Engine.t
(** The engine every exchange of this network is timed on.  A caller
    that reads what persist pushes delivered runs it first
    ([Ldap_sim.Engine.run]). *)

val set_link_latency :
  t -> a:string -> b:string -> Ldap_sim.Latency.t -> unit
(** Latency distribution for the (undirected) link between two hosts.
    Each direction of an exchange draws independently. *)

val set_default_latency : t -> Ldap_sim.Latency.t -> unit
(** Fallback distribution for links without an explicit setting
    (default {!Ldap_sim.Latency.Zero}). *)

val link_latency : t -> a:string -> b:string -> Ldap_sim.Latency.t
(** Effective distribution for a link.  With no per-link setting at
    all the default is returned without building a link key. *)

val add_handler : t -> name:string -> (Query.t -> Server.response) -> unit
(** Registers a search handler under a host name: a full server
    ({!Server.handler}) or a partial replica
    ({!Ldap_replication.Replica_server.handler}). *)

val stats : t -> stats
(** A snapshot of the traffic counters since creation or the last
    {!reset_stats}. *)

val reset_stats : t -> unit
(** Zeroes every traffic counter. *)

val rpc_send :
  t ->
  ?faults:Faults.t ->
  from:string ->
  host:string ->
  request_bytes:int ->
  reply_bytes:('r -> int) ->
  (unit -> 'r) ->
  (('r, failure) result -> unit) ->
  unit
(** One request/reply exchange from [from] to [host], serving the
    request with the given thunk; the continuation receives the result
    when the reply (or failure) is delivered.  The fault schedule is
    consulted first: a partitioned link or dropped request means the
    thunk never runs; a dropped {e reply} means the thunk {e did} run —
    its side effects stand — but the caller only sees [Timeout].  All
    attempts, bytes and losses are accounted in {!stats}.

    Each leg is timed through {!after}: the request is served after
    one link-latency draw and the reply delivered after a second, and
    a failure surfaces after the round trip the exchange would have
    taken.  Inside an inline {!await} the continuation runs before
    [rpc_send] returns and no latency is drawn. *)

val rpc :
  t ->
  ?faults:Faults.t ->
  from:string ->
  host:string ->
  request_bytes:int ->
  reply_bytes:('r -> int) ->
  (unit -> 'r) ->
  ('r, failure) result
(** {!await} of {!rpc_send}. *)

val after : t -> delay:int -> (unit -> unit) -> unit
(** Runs the thunk [delay] ticks from now on the network's engine, or
    at once while an inline {!await} is running.  The single place
    where an exchange leg or a retry backoff is timed. *)

val await : t -> (('a -> unit) -> unit) -> 'a
(** [await t start] runs a continuation-passing chain to completion and
    returns the value it delivered — how every synchronous exchange is
    derived from its asynchronous form.  Two cases:
    - the engine is idle: the chain is started and the engine run to
      quiescence, so virtual time advances by whatever the chain waits
      (and every event queued before it, such as a push in flight,
      fires in its turn);
    - called from inside an event (the engine is running and cannot be
      re-entered): the chain runs inline, every leg completing on the
      spot in zero virtual time; legs scheduled after [await] returns
      or raises are timed again.

    Raises [Invalid_argument] if the continuation never fired. *)

val account_push : t -> bytes:int -> unit
(** Accounts one delivered persistent-search push PDU. *)

val account_dropped : t -> unit
(** Accounts one PDU lost to faults outside {!rpc_send} (e.g. a push). *)

val search :
  t -> from:string -> Query.t -> (Entry.t list, string) result
(** Sends the search to host [from] and chases referrals and
    continuation references until the result set is complete: {!await}
    of a chain whose every hop is one fault-free {!rpc_send} from host
    ["client"].  Fails on unknown hosts, referral loops (guarded by a
    visited set) or server failures.  Entries are deduplicated by
    canonical DN: overlapping continuation references contribute one
    copy, in first-seen order. *)
