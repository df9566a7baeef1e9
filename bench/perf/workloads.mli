(** The four benchmark workloads: set-up, the timed phase on the
    virtual clock, the correctness checks and the metrics.

    Every workload runs in one process and one thread.  Client
    operations are due on an open schedule of virtual ticks (the
    engine's clock) and are executed back to back on the wall clock —
    a closed loop with one client and no think time.  A run measures
    for at least the requested wall seconds {e and} at least the
    workload's virtual window: virtual-clock and count metrics are
    taken over the window only, so they repeat exactly for a seed,
    while wall-clock metrics use every timed operation.  Wall-clock
    metrics are divided by the machine-speed factor of {!Calib}. *)

type kind = Edge_read | Fanout_write | Shard_write | Crash_rejoin

val workloads : (string * kind) list
(** Names, in report order. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type outcome = {
  workload : string;
  metrics : metric list;
      (** End-to-end metrics for an untraced run; per-layer metrics
          for a traced one. *)
  attempted : int;  (** Client operations executed plus checks made. *)
  failed : int;  (** Operations that returned an error plus failed checks. *)
  problems : string list;  (** One line per failure. *)
}

val run :
  kind -> seed:int -> seconds:float -> smoke:bool -> spans:out_channel option -> outcome
(** Runs one workload.  Without [spans] the workload is set up five
    times (set-up time is their median) and the last set-up is
    measured.  With it, a first set-up runs the virtual window
    untraced, a second runs the timed phase traced, the run checks
    that both saw identical virtual and count metrics, and the spans
    are written to the channel.  [smoke] shrinks the directory and
    topology; with [seconds = 0.] the run stops at the end of the
    window. *)
