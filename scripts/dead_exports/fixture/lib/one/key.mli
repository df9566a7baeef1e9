(** Passed whole to a functor. *)

type t = int

val compare : t -> t -> int
(** Used by [Set.Make], never named. *)
