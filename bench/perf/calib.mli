(** Machine-speed calibration.

    The benchmark runs on shared machines whose speed drifts by tens of
    percent within seconds: other tenants contend for caches, memory
    bandwidth and execution units.  That drift is wider than any useful
    regression bound, so wall-clock metrics are divided by a speed
    factor measured alongside them.

    The factor comes from a fixed kernel that uses only the standard
    library and never allocates: a pointer chase through a 16 MB ring,
    continued where the last run stopped so that it always misses the
    caches (memory latency), then a hashing loop over a 32 KB table
    (execution units).  Library changes cannot move the kernel, and
    since it does not allocate, the program's heap and GC settings
    cannot either; so the factor tracks the machine, not the program.
    A sampler times the kernel at most every 50 ms; the factor of a
    wall-clock interval is the median of the samples taken within
    250 ms of it, over the kernel's typical duration on the reference
    machine (2 vCPUs, 8 GB), 4.0 ms.  A factor above 1 means a slower
    machine. *)

type t

val create : unit -> t

val sample : t -> unit
(** Times the kernel once and records the sample. *)

val tick : t -> unit
(** Calls {!sample} when 50 ms have passed since the last sample. *)

val factor : t -> from_ns:int -> until_ns:int -> float
(** The speed factor of the interval [\[from_ns, until_ns\]]: the
    median of samples within 250 ms of it, or the nearest sample when
    none is; 1 without samples. *)
