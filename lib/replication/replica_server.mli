(** A partial replica exposed as a directory server.

    Wraps a {!Filter_replica} behind the {!Ldap.Server.response}
    interface so it can join a simulated
    {!Ldap.Network} topology: contained queries are answered locally in
    one round trip; everything else produces a referral to the master's
    LDAP URL, which a referral-chasing client follows transparently.
    This is the deployment shape of the paper's case study — a branch
    replica in front of a remote master.

    Referral URLs are built by {!Ldap.Referral.make} from the master's
    host name — the same construction path the cascading topology uses
    when an intermediate node refers a non-admitted subscription
    upstream, so URL shape is defined in exactly one place. *)

open Ldap

type t

val of_filter_replica :
  master_host:string -> Filter_replica.t -> t
(** [master_host] is the network name of the server a missed query is
    referred to; the URL itself is derived via {!Ldap.Referral.make}. *)

val register : t -> Network.t -> name:string -> unit
(** Installs the replica as host [name] in the topology: a hit answers
    with its entries, a miss with a referral to the master's URL. *)
