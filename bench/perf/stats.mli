(** Order statistics shared by the run summaries and [compare]. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the nearest-rank [p]-quantile of an
    ascending array: the smallest sample with at least [p * n] samples
    at or below it.  [nan] on an empty array.
    @raise Invalid_argument unless [0 < p <= 1]. *)

val beyond : int -> float -> int
(** [beyond n p] is the number of samples strictly above the nearest
    rank of [p] among [n] samples. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count); [nan] on
    the empty list. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile by the exclusive method
    of Python's [statistics.quantiles(values, n=4)]; one sample gives
    that sample three times.
    @raise Invalid_argument on the empty list. *)
