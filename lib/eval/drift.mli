(** The drift scenario sweep: does adaptive replication keep up with a
    shifting workload, and at what transition cost?

    One synthetic enterprise serves a scripted five-phase workload —
    warmup over two divisions, a flash crowd on an uncovered
    department pair, a geography-bias flip concentrating on a few
    departments of a warm division plus a never-seen one, a
    subtree-rename storm inside the hot region, and a second replica
    joining mid-drift.  The whole schedule runs twice with identical
    seeds: once with delta transitions ({!Controller.Delta}) and once
    with the cold-swap baseline; per phase the sweep records hit
    ratios (head of the phase vs tail — recovery means the tail
    climbs back), update traffic and the bytes attributable to
    filter-set transitions.

    Two separate backpressure scenarios exercise the bounded persist
    queues: a stalled leaf whose burst fits the bound (parked and
    delivered on resume) and one whose burst overflows it (session
    retired, reconnection escalates to a degraded resync).

    Everything is deterministic — no wall clock, explicit PRNG seeds —
    so CI can diff two runs' JSON byte-for-byte. *)

open Ldap_adaptive

type config = {
  dr_employees : int;
  dr_seed : int;
  dr_budget : int;  (** Controller size budget, estimated entries. *)
  dr_half_life : int;
  dr_drift_check : int;
  dr_revolution : int;
  dr_phase_queries : int;
  dr_bp_limit : int;  (** Persist outbound queue bound. *)
  dr_bp_updates : int;  (** Updates committed against the stalled leaf. *)
}

val default_config : config
(** 8000 employees, 240 queries per phase. *)

val smoke_config : config
(** CI-sized: 1600 employees, 160 queries per phase. *)

(** One phase of one run. *)
type phase_point = {
  pp_name : string;
  pp_queries : int;
  pp_hits : int;
  pp_head_hit : float;  (** Hit ratio over the first half. *)
  pp_tail_hit : float;  (** Hit ratio over the last third. *)
  pp_update_bytes : int;  (** Sync bytes of the phase's poll rounds. *)
  pp_transition_bytes : int;
      (** Sync bytes spent inside the phase's adaptations. *)
  pp_adaptations : int;
  pp_drift_adaptations : int;  (** Of which the drift trigger fired. *)
  pp_report : Transition.report;
}

(** One full workload run in one transition mode. *)
type run_result = {
  rr_mode : Controller.mode;
  rr_phases : phase_point list;
  rr_totals : Transition.report;
  rr_transition_bytes : int;
  rr_join_point : phase_point;  (** The joining replica's phase. *)
  rr_adaptations : int;
  rr_drift_adaptations : int;
  rr_unchanged_checks : int;
  rr_failed_installs : int;
}

val find_phase : run_result -> string -> phase_point
(** The named phase; raises [Not_found] for an unknown name. *)

(** One backpressure scenario outcome. *)
type bp_point = {
  bp_limit : int;
  bp_updates : int;
  bp_queue_peak : int;  (** Largest queue the master ever held. *)
  bp_queue_total_after : int;  (** Outstanding queued actions at the end. *)
  bp_overflows : int;
  bp_resets : int;
  bp_escalated : bool;  (** The session was retired and re-established. *)
  bp_converged : bool;  (** Final content matches the master. *)
}

(** {1 Long-haul write pressure}

    A separate scenario, run and gated by [bench/main.exe adapt]
    after the drift sweep: a long committed-update stream against a master with both the session
    history high-water mark and the persist queue bound set.  One
    polling leaf never polls during the run (its history must hit the
    HWM and escalate), a persist leaf stops draining a third of the
    way in (its queue must overflow and retire), and everyone else
    polls on a steady cadence.  At the end every participant must
    reconverge through the degraded escalations.  The directory is
    seeded with 17. *)

type lh_config = {
  lh_employees : int;
  lh_updates : int;
  lh_leaves : int;  (** Polling leaves (leaf 0 is the laggard). *)
  lh_poll_every : int;  (** Updates between a normal leaf's polls. *)
  lh_history_limit : int;
  lh_queue_limit : int;
}

val lh_default_config : lh_config
(** 12000 updates against a 400-action HWM and a 64-action queue. *)

val lh_smoke_config : lh_config
(** CI-sized: 1500 updates, 60-action HWM, 16-action queue. *)

type lh_point = {
  lh_committed : int;
  lh_history_overflows : int;
  lh_push_overflows : int;
  lh_pending_max_seen : int;
      (** Largest per-session history buffer sampled after any commit —
          must stay at or under the high-water mark. *)
  lh_push_peak : int;
  lh_converged : int;
  lh_participants : int;  (** Poll leaves + the persist leaf. *)
}

val run_long_haul : lh_config -> lh_point
(** Runs the whole long-haul scenario over a fresh fixture. *)

val lh_gates_pass : lh_config -> lh_point -> bool
(** Both escalation counters fired, both buffers stayed within a
    one-action grace of their bounds, and every participant
    reconverged. *)


(** The acceptance gates, written into [BENCH_PR10.json]. *)
type gates = {
  g_geo_delta_le_half_cold : bool;
      (** Geo-flip delta transition bytes ≤ 50% of cold swap. *)
  g_hit_ratio_recovers : bool;
      (** Every drift phase's tail hit ratio recovers. *)
  g_queue_bounded : bool;
      (** Stalled-leaf queue stayed ≤ bound + 1, drained to zero, and
          the overflow run escalated and reconverged. *)
  g_no_failed_installs : bool;
}

type sweep = {
  sw_config : config;
  sw_delta : run_result;
  sw_cold : run_result;
  sw_bp_stall : bp_point;
  sw_bp_overflow : bp_point;
  sw_gates : gates;
}

val run : ?config:config -> unit -> sweep
(** Delta run, cold run (identical seeds), both backpressure
    scenarios, gates. *)
