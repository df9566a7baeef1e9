(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component of the simulation draws from an
    explicitly seeded generator, so directories, workloads and
    experiments are reproducible bit-for-bit across runs and
    machines.  Nothing in the repository uses the global [Random]
    state or the wall clock. *)

type t

val create : int -> t
(** Generator seeded from an integer. *)

val int : t -> int -> int
(** [int t bound] in [[0, bound)]; requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] inclusive range. *)

val float : t -> float -> float
(** [float t bound] in [[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element; requires a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

val weighted : t -> ('a * float) list -> 'a
(** Sample proportionally to non-negative weights (sum > 0). *)
