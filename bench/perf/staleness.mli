(** Commit-to-acknowledgement staleness on the virtual clock.

    A commit is stamped with the vector of master CSNs right after it
    (one component for a single master, one per shard behind a
    router).  A leaf acknowledges a vector when its resume cookies
    cover it componentwise; a component of [max_int] marks a shard the
    leaf's subscription does not cover.  The staleness of a (commit,
    leaf) pair is the virtual time from the commit until the leaf
    first acknowledged a vector covering it, as in the scale sweep. *)

type t

val create : unit -> t

val commit : t -> tick:int -> int array -> unit
(** Records a commit to be sampled, in commit order. *)

val ack : t -> string -> tick:int -> int array -> unit
(** Records what leaf [name] acknowledged at [tick].  Only advances
    are kept; a leaf restarted from older durable state does not
    un-acknowledge. *)

type summary = {
  pairs : int;  (** (commit, leaf) pairs acknowledged by the horizon. *)
  censored : int;  (** Pairs still unacknowledged at the horizon. *)
  p50 : float;
  p99 : float;  (** Nearest-rank, in ticks. *)
}

val summarize : t -> horizon:int -> summary
(** Pairs of every recorded commit with every leaf that ever
    acknowledged, counting acknowledgements at or before [horizon]. *)
