(** ReSync update actions (section 5.2).

    Each notification/update PDU carries an entry together with a
    control telling the replica what to do.  [Add] and [Modify] carry
    the complete entry; [Delete] only the DN; [Retain] — used when the
    server has incomplete history (eq. (3)) — tells the replica the
    entry is still in the content and unchanged. *)

open Ldap

type t =
  | Add of Entry.t  (** Entry moved into the content (by any of the
                        four update operations at the master). *)
  | Modify of Entry.t  (** Entry changed but stayed in the content. *)
  | Delete of Dn.t  (** Entry moved out of the content. *)
  | Retain of Dn.t  (** Unchanged and still in content (degraded mode
                        only). *)

val target : t -> Dn.t

val select : Query.t -> t -> t
(** The action as transmitted to a session on the query: [Add] and
    [Modify] entries keep only the query's attribute selection, exactly
    like search results do. *)

val entries_cost : t -> int
(** Traffic in the paper's unit (entries transferred): 1 for [Add] and
    [Modify], 0 for the DN-only [Delete]/[Retain]. *)

val bytes_cost : t -> int
(** Modelled PDU bytes ({!Ldap.Ber}). *)

val kind_name : t -> string
