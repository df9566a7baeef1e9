(** Reproductions of every table and figure in the paper's evaluation
    (section 7), plus the two protocol illustrations (Figures 2 and 3)
    and the section 5.2 history-mechanism ablation.

    Each function runs a complete, deterministic experiment and
    returns a {!Report.table} whose notes state the shape the paper
    reports.  Absolute numbers differ — the substrate is a synthetic
    directory, not IBM's — but who wins, by what rough factor and
    where the curves saturate should match. *)

val figure2 : unit -> Report.table
(** Distributed operation processing: round trips and PDUs for the
    3-server referral scenario of section 2.3. *)

val figure3 : unit -> Report.table
(** The example ReSync session of Figure 3: message sequence across
    two polls and a persistent phase, with entries E1..E5. *)

val figure4 : ?fractions:float list -> ?length:int -> Scenario.t -> Report.table
(** Hit ratio vs replica size (fraction of person entries),
    serialNumber query: filter-based vs subtree-based. *)

val figure8 : ?filter_counts:int list -> ?length:int -> Scenario.t -> Report.table
(** Hit ratio vs number of stored filters, serialNumber query: cached
    user queries only / generalized filters only / both. *)

val figure9 : ?filter_counts:int list -> ?length:int -> Scenario.t -> Report.table
(** Same sweep for the mail query: the unorganized local part defeats
    generalization; only temporal locality (caching) helps. *)

val resync_ablation : ?updates:int -> ?filters:int -> unit -> Report.table
(** Section 5.2: synchronization traffic and history size of session
    history vs changelog vs tombstone under the same update stream. *)

val lossy_sync :
  ?rates:float list ->
  ?updates:int ->
  ?seed:int ->
  ?employees:int ->
  ?filters:int ->
  unit ->
  Report.table
(** Section 5 under injected faults: consumers poll through a
    transport that drops requests and replies at each rate (split
    evenly) and suffers a forced session expiry mid-run.  Reports
    retries, degraded resyncs and abandoned polls, and checks every
    consumer converges to the master's content after a final clean
    poll. *)

val processing_overhead : ?filter_counts:int list -> ?length:int -> Scenario.t -> Report.table
(** Section 7.4: containment comparisons per query as the number of
    stored filters grows (the time side is measured by the Bechamel
    benchmarks). *)

val tree_fanout : Sweep.point list -> Report.table
(** The cascading-topology experiment (section 5 extension): flat star
    vs 2-tier k-ary tree of intermediate nodes at growing consumer
    counts — root sessions, root-link Ber bytes and convergence
    rounds, one row per {!Sweep.tree_fanout} point. *)

val latency_staleness : Sweep.lat_point list -> Report.table
(** The discrete-event latency/staleness sweep: star vs tree, clean vs
    lossy links, with per-poll response-time and per-update staleness
    percentiles in virtual ticks, one row per
    {!Sweep.latency_staleness} point. *)

val crash_restart : Sweep.cr_point list -> Report.table
(** The crash/restart recovery sweep: durable-cookie resume (clean and
    torn-tail WAL) vs cold re-fetch vs reparent, comparing resync
    bytes and virtual recovery time, one row per
    {!Sweep.crash_restart} point. *)

val experiment_names : string list
(** The experiment table's names, in the order {!all} prints them:
    table1, fig2 .. fig9, location, consistency, rootbase, evolution,
    ablation, lossy, overhead, tree-fanout, latency, crash-restart. *)

val run : ?quick:bool -> string list -> unit
(** Runs the named experiments in order over one shared scenario and
    prints their tables.  [quick] shrinks directory and workload sizes
    and runs the sweeps at their smoke configurations.  Raises
    [Invalid_argument] on a name outside {!experiment_names}. *)

val all : ?quick:bool -> unit -> unit
(** [run ?quick experiment_names]: every reproduction. *)
