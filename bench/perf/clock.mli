(** Monotonic clock. *)

val now_ns : unit -> int
(** Nanoseconds on CLOCK_MONOTONIC; only differences are meaningful.
    Does not allocate. *)
