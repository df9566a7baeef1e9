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

val handler :
  master_host:string -> Filter_replica.t -> Query.t -> Server.response
(** The replica's search handler, for {!Ldap.Network.add_handler}: a
    hit answers with its entries, a miss with a referral to
    [master_host]'s URL (derived via {!Ldap.Referral.make}). *)
