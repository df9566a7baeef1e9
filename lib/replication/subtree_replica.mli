(** Subtree-based partial replica (sections 3 and 3.4.1).

    Holds one or more replication contexts [Ci = (Si, Ri1..RiCi)]: a
    subtree suffix plus the DNs of referral objects delimiting it.  An
    incoming query can be answered iff its base lies inside some
    context and not under any of that context's referrals — the
    paper's [isContained] algorithm.

    Content is kept in sync with the master through ReSync sessions
    whose query is the subtree specification (base [Si], scope SUBTREE,
    filter [(objectclass=*﻿)]) — the reduction noted in section 3.
    Those sessions poll over a {!Ldap_resync.Transport}, on the same
    network and clock as the rest of the scenario. *)

open Ldap

type t

val create : Ldap_resync.Transport.t -> master_host:string -> subtrees:Dn.t list -> t
(** Replicates the given subtrees, fetching their initial content from
    the master at [master_host] on the transport
    ({!Ldap_resync.Consumer.sync_over}).  A subtree rooted at a DN the
    master does not hold is simply empty.  Referral objects inside the
    subtrees become context referrals automatically.
    @raise Invalid_argument if a fetch fails. *)

val stats : t -> Stats.t

val size_entries : t -> int
(** Number of replicated entries (referral objects excluded). *)

val answer : t -> Query.t -> Replica.answer
(** Answers from local content when the paper's [isContained (b, C)]
    holds for the query's base [b]; referral otherwise.  Updates the
    hit/miss stats. *)

val sync : t -> unit
(** One poll round on every subtree session, applying updates locally
    and accounting traffic in {!stats}. *)
