(** Update operations and the master's update log.

    The four LDAP update operations of section 2.2 — add, delete,
    modify, modify DN — plus the committed-update record the ReSync
    protocol consumes.  A record carries full pre- and post-images of
    the affected entry so a synchronization session can decide, for any
    filter, whether the entry moved into, out of, or within the
    filter's content (the E01/E10/E11 classification of section 5.1). *)

type mod_kind = Entry.mod_kind = Add_values | Delete_values | Replace_values

type mod_item = Entry.mod_item = { mod_kind : mod_kind; mod_attr : string; mod_values : string list }

type op =
  | Add of Entry.t
  | Delete of Dn.t
  | Modify of Dn.t * mod_item list
  | Modify_dn of {
      dn : Dn.t;
      new_rdn : Dn.rdn;
      delete_old_rdn : bool;
      new_superior : Dn.t option;  (** [None]: stay under current parent. *)
    }

type record = {
  csn : Csn.t;  (** The commit's CSN, assigned by the backend. *)
  op : op;
  before : Entry.t option;  (** Pre-image; [None] for Add. *)
  after : Entry.t option;  (** Post-image; [None] for Delete. *)
}

val op_target : op -> Dn.t
(** The DN named by the operation (the old DN for Modify_dn). *)

val op_kind_name : op -> string
(** ["add"], ["delete"], ["modify"] or ["modifyDN"]. *)

val add : Entry.t -> op
(** Adds the entry under its DN. *)

val delete : Dn.t -> op
(** Deletes the (leaf) entry at the DN. *)

val modify : Dn.t -> mod_item list -> op
(** Applies the modifications, in order, to the entry at the DN. *)

val modify_dn : ?new_superior:Dn.t -> ?delete_old_rdn:bool -> Dn.t -> Dn.rdn -> op
(** Renames the (leaf) entry to the new RDN, under [new_superior] when
    given.  [delete_old_rdn] defaults to [true]. *)

val replace_values : string -> string list -> mod_item
(** Replaces every value of the attribute; an empty list deletes it. *)
