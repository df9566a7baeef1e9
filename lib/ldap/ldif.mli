(** LDIF (LDAP Data Interchange Format, RFC 2849 subset).

    Serialization of entries and change records for the CLI's
    export/import commands and for fixtures in tests.  The supported
    subset covers what this codebase produces: [dn:]/attribute lines,
    base64 values where required, line folding, comments, and the four
    change types (add, delete, modify, modrdn). *)

type change =
  | Change_add of Entry.t
  | Change_delete of Dn.t
  | Change_modify of Dn.t * Update.mod_item list
  | Change_modrdn of {
      dn : Dn.t;
      new_rdn : Dn.rdn;
      delete_old_rdn : bool;
      new_superior : Dn.t option;
    }

val entry_to_string : Entry.t -> string
(** One LDIF record, trailing newline included. *)

val entries_to_string : Entry.t list -> string
(** Records separated by blank lines, with a leading [version: 1]. *)

val entry_of_string : string -> (Entry.t, string) result
(** Parses a single record (no [changetype]). *)

val entries_of_string : string -> (Entry.t list, string) result
(** Parses a whole LDIF file of entry records; tolerates comments and
    a [version:] line. *)

val change_to_string : change -> string
(** Renders one change record as LDIF. *)

val change_of_update : Update.op -> change
(** The LDIF change record describing an update operation. *)

val update_of_change : change -> Update.op
(** The update operation a change record describes; inverse of
    {!change_of_update}. *)

val needs_base64 : string -> bool
(** Whether a value must be base64-encoded per RFC 2849 (leading
    space/colon/angle, non-printable or non-ASCII bytes, trailing
    space). *)
