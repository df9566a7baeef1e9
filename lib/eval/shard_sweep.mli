(** The sharding experiment: routed writes, covered reads and
    per-shard crash recovery at growing shard counts.

    Per shard count a fresh partition/router is seeded from one shared
    enterprise directory, then three things are measured over
    identical seeds:

    - {e write throughput}: a burst of routed modifies arrives at
      virtual time 0 and each shard serves its writes one after
      another, four ticks each, so the makespan is four ticks times
      the busiest shard's write count; throughput is
      writes-over-makespan, so balanced partitions approach a [k]-fold
      speedup at [k] shards while a single shard serializes the burst;
    - {e read fan-out}: the shard covers of a deterministic query mix
      (block-prefix, department, geography-anchored and conjunctive
      filters), against the naive broadcast of contacting every shard;
      single-block filters must always cover exactly one shard;
    - {e per-shard crash/restart}: one shard with durable stores is
      checkpointed, takes a post-checkpoint update burst, crashes and
      recovers; a consumer subscribed through the router resumes its
      composite cookie, and its catch-up bytes are compared with a
      cold re-subscription. *)

type config = {
  employees : int;  (** Directory size. *)
  countries : int;  (** Serial blocks (one per country). *)
  writes : int;  (** Routed write burst per point. *)
  queries : int;  (** Queries in the fan-out mix per point. *)
  crash_updates : int;  (** Updates landed between checkpoint and crash. *)
}

val default_config : config
(** Shards 1/2/4/8 over 20 countries, 4000 employees, 2000 writes. *)

val smoke_config : config
(** CI-sized: 800 employees over 10 countries, 240 writes. *)

(** One shard count's measurements. *)
type point = {
  sp_shards : int;
  sp_makespan : int;  (** Virtual completion time of the write burst. *)
  sp_throughput : float;  (** Writes per virtual tick. *)
  sp_speedup : float;  (** Throughput relative to the 1-shard point. *)
  sp_single_cover_max : int;
      (** Worst cover size over every single-block filter — gated
          to 1: a single-shard filter contacts one shard at any
          count. *)
  sp_fanout_avg : float;  (** Mean cover size of the query mix. *)
  sp_fanout_ratio : float;
      (** Mean cover over the naive broadcast (= shard count). *)
  sp_plan_hit_ratio : float;  (** Coverage-plan cache hits / lookups. *)
  sp_warm_bytes : int;
      (** Resync bytes for the subscribed consumer to catch up after
          the shard's crash/recovery (composite-cookie resume). *)
  sp_cold_bytes : int;  (** Same content fetched by a fresh consumer. *)
  sp_wal_replayed : int;  (** Backend WAL records replayed on recovery. *)
  sp_recover_ok : bool;
      (** The resumed consumer's content matches the cold fetch. *)
}

val run : ?config:config -> unit -> point list
(** Runs shard counts 1, 2, 4 and 8 over identical seeds (seed 42). *)

