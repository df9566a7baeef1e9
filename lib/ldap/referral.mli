(** LDAP URLs used in referrals ([ldap://host/dn]).

    Referral objects and default referrals carry these URLs; the
    simulated client parses them to decide which server to contact next
    and with which (possibly modified) base DN — the Figure 2 dance. *)

type t = { host : string; dn : Dn.t option }

val make : host:string -> ?dn:Dn.t -> unit -> string
(** [make ~host ?dn ()] is the URL [ldap://host/dn] ([ldap://host/]
    without a DN). *)

val parse : string -> (t, string) result
(** Parses an LDAP URL; [Error] when the [ldap://] scheme is missing
    or the DN does not parse. *)
