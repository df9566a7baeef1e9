(** Per-link latency distributions.

    {!Engine.draw} samples one from the engine's random stream.  [Zero]
    and [Fixed] consume no roll, keeping draws reproducible when a link
    is switched between deterministic and random latencies. *)

type t =
  | Zero  (** Immediate delivery — the pre-engine behaviour. *)
  | Fixed of int  (** Constant delay in ticks. *)
  | Uniform of { lo : int; hi : int }  (** Uniform integer delay in [lo, hi]. *)
  | Exponential of { mean : int }
      (** Exponentially distributed delay with the given mean, rounded to
          the nearest tick. *)

