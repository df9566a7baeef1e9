(** Shares its short name with [Deadfix_one.Server]. *)

val same_name : unit -> int
(** Called from [bin]. *)

val swapped : unit -> int
(** Called from [Swap] through an alias that shadows the module name. *)
