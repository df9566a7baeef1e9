(** Reproductions of every table and figure in the paper's evaluation
    (section 7), plus the two protocol illustrations (Figures 2 and 3)
    and the section 5.2 history-mechanism ablation.

    Each function runs a complete, deterministic experiment and
    returns a {!Report.table} whose notes state the shape the paper
    reports.  Absolute numbers differ — the substrate is a synthetic
    directory, not IBM's — but who wins, by what rough factor and
    where the curves saturate should match. *)

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

val processing_overhead : ?filter_counts:int list -> ?length:int -> Scenario.t -> Report.table
(** Section 7.4: containment comparisons per query as the number of
    stored filters grows (the time side is measured by the Bechamel
    benchmarks). *)

val experiment_names : string list
(** The experiment table's names, in the order {!all} prints them:
    table1, fig2 .. fig9, location, consistency, rootbase, evolution,
    ablation, lossy, overhead. *)

val run : ?quick:bool -> string list -> unit
(** Runs the named experiments in order over one shared scenario and
    prints their tables.  [quick] shrinks directory and workload sizes.  Raises
    [Invalid_argument] on a name outside {!experiment_names}. *)

val all : ?quick:bool -> unit -> unit
(** [run ?quick experiment_names]: every reproduction. *)
