(** Shares its short name with [Deadfix_two.Server]. *)

val used : unit -> int
(** Called from [bin]: a cross-unit use. *)

val helper : unit -> int
(** Called only from this module. *)

val probe : unit -> int
(** Called only from [test]. *)

val via_alias : unit -> int
(** Called through [module S = Deadfix_one.Server]. *)

val via_let_module : unit -> int
(** Called through [let module T = Deadfix_one.Server in]. *)

val same_name : unit -> int
(** [Deadfix_two.Server.same_name] is called; this one is not. *)

val swapped : unit -> int
(** [Deadfix_two.Swap] calls a [Server.swapped] that is not this one. *)
