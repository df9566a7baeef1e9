(** Zipf-distributed sampling over ranks [0 .. n-1].

    Rank 0 is the most popular item.  Used to model the skewed access
    patterns (semantic locality) of the enterprise workload: a few
    serial-number blocks, departments and locations receive most of
    the accesses. *)

type t

val create : ?s:float -> int -> t
(** [create ~s n] over [n] ranks with exponent [s] (default 1.0).
    Requires [n > 0]. *)

val size : t -> int
val sample : t -> Prng.t -> int
(** A rank in [[0, n)], lower ranks more likely. *)
