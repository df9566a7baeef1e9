(** Renames this library's [Server] around an [open] of another
    library that has a [Server] too. *)

val run : unit -> int
(** Calls [Deadfix_two.Server.swapped]. *)
