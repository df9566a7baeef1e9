(** Re-exported whole by [Deadfix_two.Value]. *)

val reexported : unit -> int
(** Called as [Deadfix_two.Value.reexported]. *)

val never : unit -> int
(** Called under neither name. *)
