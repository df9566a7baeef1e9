(** The topology sweeps of the evaluation: tree fan-out,
    latency/staleness, crash/restart with WAL corruption, anti-entropy
    drift and the paper-scale content plane.  Every sweep builds its
    replica fleet with {!Scenario.fleet} and returns plain records;
    [bench/main.exe] renders and gates them.

    The tree-fanout, latency, crash/restart and anti-entropy sweeps
    share one directory seed (7) and uniform 2–8 tick links; the
    scale sweep seeds its directory with 11. *)

val percentile : empty:'a -> 'a array -> float -> 'a
(** [percentile ~empty sorted p] is the sample at index
    [round (p * (n - 1))] (capped at [n - 1]) of an ascending array of
    [n] samples, or [empty] when [n = 0]: p = 0.5 is the median and
    p = 1 the maximum. *)

(** {1 Tree fan-out}

    Flat star versus 2-tier k-ary tree at growing consumer counts.
    For each consumer count [n], a synthetic enterprise directory is
    built, [n] leaves subscribe to department filters (round-robin over
    a small distinct-filter set), an update burst is applied at the
    root, and the topology is synchronized to convergence.  Per point
    the sweep records root-master session count, Ber bytes on the
    links into the root (initial build and update phases separately),
    total upstream bytes across all links, and the number of poll
    rounds to convergence.

    Expected shape: in the tree, root sessions and root-link bytes are
    flat in [n] (only the interior nodes talk to the root) while the
    star grows both linearly; the tree pays one extra convergence
    round per tier. *)

type point = {
  shape : string;  (** ["star"] or ["tree<arity>"]. *)
  consumers : int;
  root_sessions : int;  (** Live sessions at the root master. *)
  build_root_bytes : int;  (** Root-link Ber bytes of the initial fetches. *)
  update_root_bytes : int;  (** Root-link Ber bytes of the update phase. *)
  update_total_bytes : int;  (** Update-phase Ber bytes over every link. *)
  convergence_rounds : int;
      (** Poll rounds until every leaf matched the root ([-1]: did not
          converge within the cap). *)
}

type config = {
  consumers_list : int list;
  filters : int;  (** Distinct leaf filters (and interior covers). *)
  arity : int;  (** Interior nodes of the tree shape. *)
  updates : int;  (** Update burst length between build and measure. *)
  employees : int;
}

val default_config : config
(** 100–1000 consumers, 20 filters, arity 4, 200 updates. *)

val smoke_config : config
(** CI-sized: 24 and 48 consumers, 8 filters, arity 2, 60 updates. *)

val tree_fanout : ?config:config -> unit -> point list
(** Runs star and tree at every consumer count, star first. *)


(** {1 Latency/staleness} *)

(** Parameters of the latency/staleness sweep. *)
type lat_config = {
  lat_consumers : int;  (** Leaves per topology. *)
  lat_filters : int;  (** Distinct leaf filters (and interior covers). *)
  lat_arity : int;  (** Interior nodes of the tree variant. *)
  lat_employees : int;  (** Directory size. *)
  lat_poll_every : int;  (** Virtual ticks between a participant's polls. *)
  lat_updates : int;  (** Updates committed during the run, one every 20 ticks. *)
  lat_horizon : int;  (** Virtual time when poll loops stop rescheduling. *)
}

val lat_default_config : lat_config
(** 48 consumers, 8 filters, arity 4, horizon 1600. *)

val lat_smoke_config : lat_config
(** CI-sized: 12 consumers, 4 filters, arity 2, horizon 700. *)

(** One measured topology/fault variant of the latency sweep. *)
type lat_point = {
  lp_shape : string;  (** ["star"] or ["tree<arity>"]. *)
  lp_faults : string;  (** ["clean"] or ["lossy"]. *)
  lp_polls : int;  (** Completed leaf polls (response-time samples). *)
  lp_resp_p50 : int;  (** Median leaf poll response time, virtual ticks. *)
  lp_resp_p90 : int;  (** 90th-percentile response time. *)
  lp_resp_p99 : int;  (** 99th-percentile response time. *)
  lp_resp_max : int;  (** Worst observed response time. *)
  lp_stale_samples : int;  (** Matched (update, leaf) staleness samples. *)
  lp_stale_censored : int;
      (** (update, leaf) pairs never covered within the horizon. *)
  lp_stale_mean : int;  (** Mean staleness, rounded to a tick. *)
  lp_stale_p50 : int;  (** Median staleness. *)
  lp_stale_p90 : int;  (** 90th-percentile staleness. *)
  lp_stale_p99 : int;  (** 99th-percentile staleness. *)
  lp_stale_max : int;  (** Worst observed staleness. *)
}

val latency_staleness : ?config:lat_config -> unit -> lat_point list
(** The event-driven sweep: star and tree topologies, each clean and
    lossy, over identical seeds.  Per variant the topology is built
    synchronously (no virtual time), then a discrete-event engine is
    attached, updates are committed on a periodic schedule and every
    participant polls on its own staggered loop (the lossy variants
    drop 20% of exchanges, half requests and half replies); each completed leaf
    poll samples its response time, and staleness is the virtual time
    from an update's commit until a leaf first acknowledged a CSN at or
    past it.  Expected ordering: tree staleness ≥ star (one extra tier
    of polling), lossy response time ≥ clean (retry backoff burns
    virtual time). *)


(** {1 Crash/restart and WAL corruption} *)

(** Parameters of the crash/restart sweep. *)
type cr_config = {
  cr_consumers : int;  (** Leaves in the star topology. *)
  cr_filters : int;  (** Distinct leaf filters. *)
  cr_employees : int;  (** Directory size. *)
  cr_updates_before : int;  (** Updates committed before the crash. *)
  cr_updates_after : int;  (** Updates committed while the leaves are down. *)
  cr_horizon : int;  (** Virtual time when poll loops stop rescheduling. *)
  cr_corruptions : int;  (** Trials of the randomized corruption sweep. *)
}

val cr_default_config : cr_config
(** 24 leaves, 12 filters, a quarter crashed, 20+40 updates. *)

val cr_smoke_config : cr_config
(** CI-sized: 8 leaves, 3 filters, 6+6 updates, 12 corruption trials. *)

(** One recovery mode of the crash/restart sweep. *)
type cr_point = {
  cp_mode : string;
      (** ["durable"] (fsynced journal, clean recovery),
          ["durable-torn"] (unsynced journal torn by the crash),
          ["cold"] (no durable state, full re-fetch) or ["reparent"]
          (no death: PR 3's cookie-translation heal as baseline). *)
  cp_affected : int;  (** Leaves crashed (or reparented). *)
  cp_resync_bytes : int;
      (** Ber bytes the affected leaves paid upstream from recovery
          start to the horizon — the headline comparison: durable
          resume must undercut cold re-fetch. *)
  cp_replayed : int;  (** WAL records replayed across all recoveries. *)
  cp_truncated : int;  (** Per-filter stores whose WAL tail was cut. *)
  cp_recover_ticks_mean : int;
      (** Mean virtual time from recovery start until an affected
          leaf's content matched the root again. *)
  cp_recover_ticks_max : int;  (** Worst leaf recovery time. *)
  cp_converged : int;  (** Affected leaves converged by the horizon. *)
}

val crash_restart : ?config:cr_config -> unit -> cr_point list
(** Runs all four modes over identical seeds: a star is built, a quarter
    of its leaves crash after the first update batch, more
    updates are committed while they are down, and they restart (or
    are reparented) once the updates stop.  Durable modes recover
    from per-leaf media and resume ReSync from the durable cookie;
    cold mode re-subscribes with full fetches. *)


(** Outcome of the randomized WAL-corruption sweep. *)
type corruption_summary = {
  cs_trials : int;
  cs_recovered : int;  (** Recoveries that returned a consumer. *)
  cs_truncated : int;  (** Recoveries that cut a torn/corrupt tail. *)
  cs_discarded : int;  (** Recoveries that discarded a stale-generation log. *)
  cs_repaired_merkle : int;  (** Damaged recoveries repaired by Merkle walk. *)
  cs_repaired_cold : int;  (** Damaged recoveries repaired by cold re-fetch. *)
  cs_stale : int;
      (** Trials whose content still diverged from the master after the
          recovery completed — forced repair for damaged recoveries, a
          resume poll for clean ones.  Gated to 0: no corruption may
          leave a replica serving stale reads. *)
  cs_panics : int;  (** Recoveries that raised — must be 0. *)
}

val corruption_sweep : ?config:cr_config -> unit -> corruption_summary
(** Journals a reference consumer store, then recovers from
    [cr_corruptions] randomly mutilated copies (truncation at an
    arbitrary byte, single-byte flips in WAL and occasionally
    snapshot).  Every trial must recover or fail cleanly — a raise is
    counted as a panic — and must end with content matching the
    master: damaged recoveries are repaired in place (Merkle walk,
    cold fallback), clean ones resume from their durable cookie with
    one poll.  Divergence after that counts as stale; panics and
    stales both fail the acceptance gate. *)


(** {1 Anti-entropy drift} *)

(** Parameters of the anti-entropy drift sweep. *)
type ae_config = {
  ae_consumers : int;  (** Leaves in the star topology. *)
  ae_employees : int;  (** Directory size. *)
  ae_drifts : float list;
      (** Drift fractions swept: each downed replica misses
          [round (drift * employees)] updates. *)
  ae_horizon : int;  (** Virtual time when poll loops stop rescheduling. *)
}

val ae_default_config : ae_config
(** 16 division replicas, a quarter crashed, drifts 0–50%. *)

val ae_smoke_config : ae_config
(** CI-sized: 8 replicas, drifts 0/10/50%. *)

(** One drift fraction of the anti-entropy sweep: the same scenario
    restarted in [Merkle] and in [Cold] mode. *)
type ae_point = {
  ap_drift : float;
  ap_updates : int;  (** Updates the downed replicas missed. *)
  ap_affected : int;  (** Replicas crashed and restarted. *)
  ap_merkle_bytes : int;
      (** Ber bytes the affected replicas paid to rejoin by Merkle
          walk — hash exchanges plus drifted-segment shipping. *)
  ap_cold_bytes : int;  (** Same replicas rejoining by full re-fetch. *)
  ap_merkle_converged : int;  (** Affected replicas converged, Merkle run. *)
  ap_cold_converged : int;  (** Affected replicas converged, cold run. *)
  ap_merkle_ticks_max : int;  (** Worst recovery time, Merkle run. *)
  ap_cold_ticks_max : int;  (** Worst recovery time, cold run. *)
}

val anti_entropy : ?config:ae_config -> unit -> ae_point list
(** The drifted crash/restart sweep: per drift fraction, a star of
    division replicas with unsynced durability is checkpointed, a
    fraction of its leaves crashes, a burst of
    [round (drift * employees)] updates lands while they are down, and
    they restart either by Merkle anti-entropy or by cold re-fetch
    (identical seeds).  Expected shape: merkle bytes grow with drift
    while cold bytes stay flat at full-content cost, with the
    crossover well past the sweep's range — the headline gate asserts
    merkle ≤ 25% of cold at 10% drift. *)


(** {1 Paper-scale content-plane sweep}

    End-to-end run at the paper's directory size: the full enterprise
    behind the root master, [sc_nodes] interior nodes splitting the
    department filters evenly, and a leaf fleet subscribing them
    round-robin.  Leaves attach in batches ([sc_leaf_points]) with the
    heap compacted and sampled after each batch, so memory growth with
    consumer count is measured inside one topology; the update stream
    is diurnally modulated (sinusoidal gap factor in [0.25, 1.75] over
    a two-virtual-day horizon) and the Table 1 query mix with Zipf
    department drift executes during the run — department lookups
    against leaf replicas, serial/mail/location against the indexed
    root. *)

type scale_config = {
  sc_base : Ldap_dirgen.Enterprise.config;
      (** Directory shape; employees and seed are overridden per run. *)
  sc_employees : int;  (** Full-size run. *)
  sc_baseline_employees : int;  (** Same topology, smaller directory. *)
  sc_nodes : int;  (** Interior nodes splitting the dept filters. *)
  sc_leaf_points : int list;  (** Cumulative leaf counts to sample at. *)
  sc_poll_every : int;
  sc_update_every : int;  (** Nominal gap; diurnally modulated. *)
  sc_updates : int;
  sc_queries : int;  (** Table 1 workload length. *)
  sc_horizon : int;
  sc_history_limit : int;  (** Root master session-history high-water mark. *)
  sc_full : bool;
      (** Include wall-clock and RSS measurements (excluded under smoke
          so the emitted JSON is bit-deterministic for CI diffing). *)
}

val scale_default_config : scale_config
(** 500k employees (60k baseline), 10 nodes over 400 department
    filters, leaves sampled at 250/500/1000. *)

val scale_smoke_config : scale_config
(** Scaled down for [dune runtest] and the CI determinism check. *)

type scale_run = {
  sr_employees : int;
  sr_entries : int;  (** Root content-store size after the run. *)
  sr_filters : int;
  sr_nodes : int;
  sr_leaves : int;
  sr_memory : (int * int * int) list;
      (** Per leaf point: (leaves, live words after [Gc.compact],
          VmRSS kB — 0 unless [sc_full]). *)
  sr_store_bytes : int;  (** Reachable bytes of the root content store. *)
  sr_build_seconds : float;
  sr_polls : int;  (** Incremental polls served across all nodes. *)
  sr_scanned : int;  (** Spine entries walked serving them. *)
  sr_rescans : int;  (** Full-content rescan fallbacks (0 = all O(diff)). *)
  sr_resp_p50 : int;
  sr_resp_p90 : int;
  sr_resp_p99 : int;  (** Leaf poll response, virtual ticks. *)
  sr_stale_samples : int;
  sr_stale_censored : int;
  sr_stale_p50 : int;
  sr_stale_p99 : int;  (** Commit-to-leaf staleness, virtual ticks. *)
  sr_updates : int;
  sr_queries : int;
  sr_query_hits : int;  (** Entries returned across the workload. *)
  sr_mix : (string * float) list;  (** Observed Table 1 mix. *)
  sr_query_seconds : float;  (** Wall seconds executing the workload. *)
  sr_serve_p50_us : float;
  sr_serve_p99_us : float;
      (** Node serve wall time per {e incremental} poll, µs — the
          O(diff)-cost population the gate compares across directory
          sizes.  Timed by the sweep around each node's transport
          endpoint ({!Ldap_topology.Node.handle} reads no clock). *)
  sr_serve_all_p99_us : float;
      (** p99 over every serve including initial-content and degraded
          transfers, whose cost is O(selection); reported, not gated. *)
  sr_pending_total : int;
  sr_pending_max : int;  (** Root master buffered-action stats. *)
  sr_history_size : int;
  sr_seen_residency : int;  (** Sent-image table entries across nodes. *)
  sr_cursor_depth_max : int;  (** Deepest spine lag of any session. *)
}

val scale : ?config:scale_config -> unit -> scale_run * scale_run
(** Runs the baseline first, then the full size, in one process —
    (baseline, main) — so the process peak RSS belongs to the full
    run. *)

val scanned_per_poll : scale_run -> float
(** Spine entries walked per incremental poll — the O(diff) figure the
    gate compares across directory sizes. *)
