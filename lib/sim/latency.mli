(** Per-link latency distributions.

    A distribution is sampled with a caller-supplied uniform roll in
    [0, 1) so the engine controls the random stream.  [Zero] and
    [Fixed] consume no roll, keeping draws reproducible when a link is
    switched between deterministic and random latencies. *)

type t =
  | Zero  (** Immediate delivery — the pre-engine behaviour. *)
  | Fixed of int  (** Constant delay in ticks. *)
  | Uniform of { lo : int; hi : int }  (** Uniform integer delay in [lo, hi]. *)
  | Exponential of { mean : int }
      (** Exponentially distributed delay with the given mean, rounded to
          the nearest tick. *)

val draw : t -> roll:(unit -> float) -> int
(** Sample a delay in ticks.  The result is always non-negative. *)
