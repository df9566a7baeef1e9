(** The network leg of a ReSync session.

    Consumers do not talk to a server directly: every exchange — poll,
    persist establishment, sync_end — is routed through a transport
    bound to an {!Ldap.Network} topology, where it is subject to the
    network's fault schedule (drops, refusals, partitions) and its
    byte/PDU accounting.  Persistent sessions get a connection handle
    whose pushed notifications also traverse the fault layer; any lost
    push breaks the connection, which the consumer must detect and
    re-establish (section 5's disrupted sessions).  Every exchange and
    every delivered push is timed on the network's engine
    ({!Ldap.Network.engine}); a scenario's transports share one
    network, so its exchanges share one clock.

    A transport serves {e endpoints}: anything that can answer ReSync
    requests.  The root {!Master} is one kind of endpoint; an
    intermediate topology node ({!Ldap_topology.Node}-style) re-serving
    its replica content downstream is another.  Consumers address
    endpoints by host name and cannot tell the difference — which is
    exactly what lets a cascading topology re-parent a consumer from a
    dead intermediate node to its grandparent. *)

module Resync_server := Server
open Ldap

type t

type error =
  | Net of Network.failure
      (** Transport-level loss: the request may or may not have been
          processed by the server. *)
  | Server of string  (** The server rejected the request. *)

val error_to_string : error -> string

(** A ReSync-serving endpoint registered under a host name. *)
type endpoint = {
  ep_handle :
    push:Protocol.push_channel option ->
    Protocol.request ->
    Query.t ->
    (Protocol.reply, string) result;
      (** Serves one resync exchange; [push] is the notification channel
          of a persist-mode session.  Its send status (see
          {!Protocol.push_status}) is what the server's bounded
          outbound queues key off. *)
  ep_abandon : cookie:string -> unit;
      (** Control-plane session teardown (client abandoned). *)
  ep_estimate : Query.t -> int;
      (** Entries currently held for the query — the size estimate used
          by benefit/size filter selection. *)
  ep_tree :
    Ldap_antientropy.Exchange.request ->
    Query.t ->
    (Ldap_antientropy.Exchange.reply, string) result;
      (** Serves one Merkle anti-entropy walk step over the content the
          endpoint holds for the query (see
          {!Ldap_antientropy.Exchange.serve}). *)
}

val create : ?faults:Network.Faults.t -> Network.t -> t
(** A transport with no endpoints over [net]; every exchange and push
    crossing it draws from [faults] when given. *)

val network : t -> Network.t
(** The network the transport's exchanges are accounted and timed on. *)

val faults : t -> Network.Faults.t option
(** The fault schedule given at creation. *)

val add_endpoint : t -> name:string -> endpoint -> unit
(** Registers (or replaces) an endpoint under a host name. *)

val remove_endpoint : t -> name:string -> unit
(** Unregisters the endpoint: the host becomes unreachable — how a
    topology kills a node.  Established sessions at other endpoints are
    unaffected. *)

val endpoint : t -> string -> endpoint option

val serve : 's Resync_server.t -> estimate:(Query.t -> int) -> endpoint
(** The endpoint of a ReSync server — a root master's
    ({!Master.server}) or a topology node's: its request path, abandon
    and Merkle service, with [estimate] as the size estimate. *)

val add_master : t -> name:string -> Master.t -> unit
(** Registers a root master as an endpoint under the host name. *)

val exchange_async :
  t ->
  host:string ->
  ?from:string ->
  Protocol.request ->
  Query.t ->
  ((Protocol.reply, error) result -> unit) ->
  unit
(** One poll/sync_end exchange against the endpoint at [host], over
    {!Ldap.Network.rpc_send}; the continuation fires when the reply
    (or failure) arrives.  [from] (default ["consumer"]) names the
    client end for partition checks and accounting. *)

val exchange :
  t -> host:string -> ?from:string -> Protocol.request -> Query.t ->
  (Protocol.reply, error) result
(** {!Ldap.Network.await} of {!exchange_async}. *)

val tree_exchange :
  t ->
  host:string ->
  ?from:string ->
  Ldap_antientropy.Exchange.request ->
  Query.t ->
  (Ldap_antientropy.Exchange.reply, error) result
(** One Merkle anti-entropy walk step against the endpoint at [host],
    over the same exchange path (and fault schedule, and byte
    accounting) as the resync exchanges; synchronous through
    {!Ldap.Network.await}. *)

(** A persistent-search connection. *)
type conn

val conn_alive : conn -> bool
(** Whether the connection still delivers: false once a push was lost
    on the link, or after {!kill} or a server-side close. *)

val kill : conn -> unit
(** Client-side teardown: subsequent pushes are discarded. *)

val pause : conn -> unit
(** Models a receiver that stopped draining its socket: while paused,
    every server-side send on this connection answers
    [Protocol.Push_stalled] and delivers nothing — the flow-control
    signal the master's bounded persist queues absorb. *)

val resume : conn -> unit
(** Clears {!pause}.  Queued actions at the server are delivered the
    next time it touches the session (an update dispatch or an explicit
    flush), not by this call. *)

val connect_async :
  t ->
  host:string ->
  ?from:string ->
  push:(Action.t -> unit) ->
  Protocol.request ->
  Query.t ->
  ((Protocol.reply * conn, error) result -> unit) ->
  unit
(** Establishes a persist-mode session over the same exchange path as
    {!exchange_async}.  Pushed actions traverse the fault layer: a
    partitioned link or a lost push marks the connection dead and
    discards that and all later notifications — the server keeps
    pushing into the void until the session expires, exactly like a
    half-open TCP connection.  If the establishment reply itself is
    lost, the server-side session exists but the returned error
    carries no connection: the consumer must retry.

    Each delivered push is an event on the network's engine, scheduled
    after one link-latency draw; deliveries stay FIFO per connection
    even when a later push draws a smaller latency.  A caller that
    reads a consumer right after a commit runs the engine first. *)

val connect :
  t ->
  host:string ->
  ?from:string ->
  push:(Action.t -> unit) ->
  Protocol.request ->
  Query.t ->
  (Protocol.reply * conn, error) result
(** {!Ldap.Network.await} of {!connect_async}. *)
