open Ldap
open Ldap_adaptive
module FR = Ldap_replication.Filter_replica
module Resync = Ldap_resync
module Enterprise = Ldap_dirgen.Enterprise
module Prng = Ldap_dirgen.Prng
module Generalize = Ldap_selection.Generalize

type config = {
  dr_employees : int;
  dr_seed : int;
  dr_budget : int;  (** Controller size budget, estimated entries. *)
  dr_half_life : int;
  dr_min_score : float;
  dr_drift_check : int;
  dr_drift_ratio : float;
  dr_revolution : int;
  dr_phase_queries : int;
  dr_update_every : int;  (** Queries between a commit + leaf poll. *)
  dr_bp_limit : int;  (** Persist outbound queue bound. *)
  dr_bp_updates : int;  (** Updates committed against the stalled leaf. *)
}

let default_config =
  {
    dr_employees = 8000;
    dr_seed = 11;
    dr_budget = 3000;
    dr_half_life = 256;
    dr_min_score = 1.0;
    dr_drift_check = 25;
    dr_drift_ratio = 1.5;
    dr_revolution = 200;
    dr_phase_queries = 240;
    dr_update_every = 10;
    dr_bp_limit = 32;
    dr_bp_updates = 20;
  }

let smoke_config =
  {
    dr_employees = 1600;
    dr_seed = 11;
    dr_budget = 700;
    dr_half_life = 128;
    dr_min_score = 1.0;
    dr_drift_check = 20;
    dr_drift_ratio = 1.5;
    dr_revolution = 160;
    dr_phase_queries = 160;
    dr_update_every = 10;
    dr_bp_limit = 8;
    dr_bp_updates = 6;
  }

(* --- Scenario fixture ------------------------------------------------- *)

type fixture = {
  fx_dir : Enterprise.t;
  fx_net : Network.t;
  fx_transport : Resync.Transport.t;
  fx_master : Resync.Master.t;
  fx_prng : Prng.t;
}

let master_host = Scenario.master_host

let make_fixture cfg =
  let sc =
    Scenario.setup
      ~config:
        { Enterprise.default_config with employees = cfg.dr_employees; seed = cfg.dr_seed }
      ()
  in
  {
    fx_dir = sc.Scenario.enterprise;
    fx_net = sc.Scenario.net;
    fx_transport = sc.Scenario.transport;
    fx_master = sc.Scenario.master;
    fx_prng = Prng.create (cfg.dr_seed * 7919);
  }

let make_controller cfg mode replica =
  Controller.create
    {
      Controller.rules =
        [ Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 } ];
      include_queries = true;
      benefit = Decayed;
      half_life = cfg.dr_half_life;
      min_score = cfg.dr_min_score;
      size_budget = cfg.dr_budget;
      revolution_interval = cfg.dr_revolution;
      drift_check_interval = cfg.dr_drift_check;
      drift_ratio = cfg.dr_drift_ratio;
      mode;
    }
    replica

let dept_query fx number = Scenario.dept_query fx.fx_dir number

let dept_number ~division ~dept = Printf.sprintf "%02d%02d" division dept

(* One churn update inside the warm region, so update traffic flows to
   whatever the leaf currently stores. *)
let commit_churn fx =
  let emps = Enterprise.employees fx.fx_dir in
  let e = emps.(Prng.int fx.fx_prng (Array.length emps)) in
  let op =
    Update.modify e.Enterprise.emp_dn
      [
        Update.replace_values "description"
          [ Printf.sprintf "churn-%d" (Prng.int fx.fx_prng 1_000_000) ];
      ]
  in
  match Backend.apply (Enterprise.backend fx.fx_dir) op with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Drift.commit_churn: " ^ e)

let commit_rename fx ~dept =
  let emps = Enterprise.employees fx.fx_dir in
  let candidates =
    Array.to_list emps
    |> List.filter (fun e -> String.equal e.Enterprise.emp_dept dept)
  in
  match candidates with
  | [] -> ()
  | _ ->
      let e = List.nth candidates (Prng.int fx.fx_prng (List.length candidates)) in
      let backend = Enterprise.backend fx.fx_dir in
      (* Rename the entry currently at that employee's position; after
         a previous rename the original DN is gone, so chase the
         current holder via the new RDN convention. *)
      let dn =
        if Backend.find backend e.Enterprise.emp_dn <> None then
          e.Enterprise.emp_dn
        else
          Dn.child_ava
            (Option.get (Dn.parent e.Enterprise.emp_dn))
            "cn"
            (Printf.sprintf "moved-%s" e.Enterprise.emp_serial)
      in
      if Backend.find backend dn <> None then
        let new_rdn =
          [
            {
              Dn.attr = "cn";
              value = Printf.sprintf "moved-%s" e.Enterprise.emp_serial;
            };
          ]
        in
        if Dn.rdn dn <> Some new_rdn then
          match Backend.apply backend (Update.modify_dn dn new_rdn) with
          | Ok _ -> ()
          | Error e -> invalid_arg ("Drift.commit_rename: " ^ e)

(* --- Phase runner ------------------------------------------------------ *)

type phase_point = {
  pp_name : string;
  pp_queries : int;
  pp_hits : int;
  pp_head_hit : float;  (** Hit ratio over the first half. *)
  pp_tail_hit : float;  (** Hit ratio over the last third. *)
  pp_update_bytes : int;
  pp_transition_bytes : int;
  pp_adaptations : int;
  pp_drift_adaptations : int;
  pp_report : Transition.report;
}

type update_kind = Churn | Rename of string

let sync_bytes fx = (Network.stats fx.fx_net).Network.sync_bytes

let hit replica q =
  match FR.answer replica q with
  | Ldap_replication.Replica.Answered _ -> true
  | Ldap_replication.Replica.Referral -> false

let run_phase cfg fx ctl ~name ~pick ~update =
  let replica = Controller.replica ctl in
  let n = cfg.dr_phase_queries in
  let head_end = n / 2 and tail_start = 2 * n / 3 in
  let hits = ref 0 and head_hits = ref 0 and tail_hits = ref 0 in
  let update_bytes = ref 0 and transition_bytes = ref 0 in
  let adapts_before = Controller.adaptation_count ctl in
  for i = 0 to n - 1 do
    let q = pick i in
    let answered = hit replica q in
    if answered then begin
      incr hits;
      if i < head_end then incr head_hits;
      if i >= tail_start then incr tail_hits
    end;
    let a0 = Controller.adaptation_count ctl in
    let b0 = sync_bytes fx in
    Controller.observe ctl q;
    if Controller.adaptation_count ctl > a0 then
      transition_bytes := !transition_bytes + (sync_bytes fx - b0);
    if (i + 1) mod cfg.dr_update_every = 0 then begin
      (match update with
      | Churn -> commit_churn fx
      | Rename dept -> commit_rename fx ~dept);
      let u0 = sync_bytes fx in
      FR.sync replica;
      update_bytes := !update_bytes + (sync_bytes fx - u0)
    end
  done;
  let phase_adapts =
    let all = Controller.adaptations ctl in
    List.filteri (fun i _ -> i >= adapts_before) all
  in
  let report =
    List.fold_left
      (fun acc a -> Transition.add_report acc a.Controller.report)
      Transition.empty_report phase_adapts
  in
  let drift_adapts =
    List.length
      (List.filter (fun a -> a.Controller.trigger = Controller.Drift) phase_adapts)
  in
  {
    pp_name = name;
    pp_queries = n;
    pp_hits = !hits;
    pp_head_hit = float_of_int !head_hits /. float_of_int head_end;
    pp_tail_hit = float_of_int !tail_hits /. float_of_int (n - tail_start);
    pp_update_bytes = !update_bytes;
    pp_transition_bytes = !transition_bytes;
    pp_adaptations = List.length phase_adapts;
    pp_drift_adaptations = drift_adapts;
    pp_report = report;
  }

(* --- The drift scenario ------------------------------------------------ *)

(* Divisions used by the scripted workload.  Warm traffic spreads over
   the departments of two divisions (selection settles on the division
   blocks); the flash crowd hammers two departments of a third; the
   geography flip concentrates on a few departments of the first warm
   division plus one department of a never-seen division. *)
let warm_a = 3
let warm_b = 4
let flash_div = 5
let new_div = 7
let warm_depts = 6
let flip_depts = 3

type run_result = {
  rr_mode : Controller.mode;
  rr_phases : phase_point list;
  rr_totals : Transition.report;
  rr_transition_bytes : int;
  rr_join_point : phase_point;
  rr_adaptations : int;
  rr_drift_adaptations : int;
  rr_unchanged_checks : int;
  rr_failed_installs : int;
}

let pick_warm fx prng =
  let division = if Prng.bool prng 0.5 then warm_a else warm_b in
  dept_query fx (dept_number ~division ~dept:(Prng.int prng warm_depts))

let pick_flash fx prng =
  if Prng.bool prng 0.8 then
    dept_query fx (dept_number ~division:flash_div ~dept:(Prng.int prng 2))
  else pick_warm fx prng

let pick_flip fx prng =
  let r = Prng.float prng 1.0 in
  if r < 0.7 then
    dept_query fx (dept_number ~division:warm_a ~dept:(Prng.int prng flip_depts))
  else if r < 0.8 then pick_warm fx prng
  else dept_query fx (dept_number ~division:new_div ~dept:0)

let find_phase result name =
  List.find (fun p -> String.equal p.pp_name name) result.rr_phases

let run_mode cfg mode =
  let fx = make_fixture cfg in
  let replica =
    FR.create_over fx.fx_transport ~master_host ~host:"leaf"
  in
  let ctl = make_controller cfg mode replica in
  let prng = Prng.create (cfg.dr_seed * 104729) in
  let phases = ref [] in
  let push p = phases := p :: !phases in
  push
    (run_phase cfg fx ctl ~name:"warmup"
       ~pick:(fun _ -> pick_warm fx prng)
       ~update:Churn);
  push
    (run_phase cfg fx ctl ~name:"flash-crowd"
       ~pick:(fun _ -> pick_flash fx prng)
       ~update:Churn);
  push
    (run_phase cfg fx ctl ~name:"geo-flip"
       ~pick:(fun _ -> pick_flip fx prng)
       ~update:Churn);
  push
    (run_phase cfg fx ctl ~name:"rename-storm"
       ~pick:(fun _ -> pick_flip fx prng)
       ~update:(Rename (dept_number ~division:warm_a ~dept:0)));
  (* A second replica joins mid-drift and rides the same shifted
     workload; it has no donors of its own, so its installs are cold in
     both modes — the point measured is how fast its hit ratio climbs. *)
  let replica2 =
    FR.create_over fx.fx_transport ~master_host ~host:"leaf-join"
  in
  let ctl2 = make_controller cfg mode replica2 in
  let join =
    run_phase cfg fx ctl2 ~name:"join-mid-drift"
      ~pick:(fun _ -> pick_flip fx prng)
      ~update:Churn
  in
  push join;
  let totals =
    Transition.add_report (Controller.totals ctl) (Controller.totals ctl2)
  in
  let result_phases = List.rev !phases in
  {
    rr_mode = mode;
    rr_phases = result_phases;
    rr_totals = totals;
    rr_transition_bytes =
      List.fold_left (fun acc p -> acc + p.pp_transition_bytes) 0 result_phases;
    rr_join_point = join;
    rr_adaptations =
      Controller.adaptation_count ctl + Controller.adaptation_count ctl2;
    rr_drift_adaptations =
      List.fold_left (fun acc p -> acc + p.pp_drift_adaptations) 0 result_phases;
    rr_unchanged_checks =
      Controller.unchanged_checks ctl + Controller.unchanged_checks ctl2;
    rr_failed_installs = totals.Transition.failed;
  }

(* --- Backpressure scenario --------------------------------------------- *)

type bp_point = {
  bp_limit : int;
  bp_updates : int;
  bp_queue_peak : int;
  bp_queue_total_after : int;  (** Outstanding queued actions at the end. *)
  bp_overflows : int;
  bp_resets : int;
  bp_escalated : bool;  (** The session was retired and re-established. *)
  bp_converged : bool;
}

(* A persist leaf stops draining its connection while updates keep
   committing.  With the queue bound above the burst the master parks
   everything and delivers on resume; with the bound below it the
   session overflows, the master frees the queue, and the consumer's
   reconnection escalates to a degraded resync.  Either way the
   master-side memory for the stalled leaf never exceeds the bound
   (plus the one in-flight dispatch). *)
let run_backpressure cfg ~overflow =
  let fx = make_fixture cfg in
  let server = Resync.Master.server fx.fx_master in
  let limit = cfg.dr_bp_limit in
  let updates = if overflow then limit + (2 * cfg.dr_bp_updates) else cfg.dr_bp_updates in
  Resync.Server.set_queue_limit server (Some limit);
  let q = dept_query fx (dept_number ~division:warm_a ~dept:0) in
  let consumer = Resync.Consumer.create q in
  (match
     Resync.Consumer.connect_persist consumer fx.fx_transport ~host:master_host
       ~from:"bp-leaf"
   with
  | Ok _ -> ()
  | Error e ->
      invalid_arg
        ("Drift.run_backpressure: " ^ Resync.Consumer.sync_error_to_string e));
  Resync.Consumer.pause_connection consumer;
  let dept = dept_number ~division:warm_a ~dept:0 in
  let emps =
    Enterprise.employees fx.fx_dir |> Array.to_list
    |> List.filter (fun e -> String.equal e.Enterprise.emp_dept dept)
  in
  let backend = Enterprise.backend fx.fx_dir in
  for i = 0 to updates - 1 do
    let e = List.nth emps (i mod List.length emps) in
    match
      Backend.apply backend
        (Update.modify e.Enterprise.emp_dn
           [ Update.replace_values "description" [ Printf.sprintf "bp-%d" i ] ])
    with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Drift.run_backpressure: " ^ e)
  done;
  let peak = Resync.Server.push_queue_peak server in
  Resync.Consumer.resume_connection consumer;
  Resync.Server.flush_pushes server;
  (* Deliver the flushed pushes before reading the consumer. *)
  Ldap_sim.Engine.run (Network.engine fx.fx_net);
  let escalated =
    if not (Resync.Consumer.persist_alive consumer) then begin
      match
        Resync.Consumer.ensure_persist consumer fx.fx_transport
          ~host:master_host ~from:"bp-leaf"
      with
      | Ok _ -> true
      | Error e ->
          invalid_arg
            ("Drift.run_backpressure: reconnect: "
            ^ Resync.Consumer.sync_error_to_string e)
    end
    else false
  in
  let expected = Backend.count_matching backend q in
  let converged =
    Resync.Consumer.size consumer = expected
    && Seq.for_all
         (fun e ->
           match Backend.find backend (Entry.dn e) with
           | Some e' -> Entry.equal e e'
           | None -> false)
         (Resync.Consumer.entries_seq consumer)
  in
  let total_after, _ = Resync.Server.push_queue_stats server in
  {
    bp_limit = limit;
    bp_updates = updates;
    bp_queue_peak = peak;
    bp_queue_total_after = total_after;
    bp_overflows = Resync.Master.push_overflows fx.fx_master;
    bp_resets = Resync.Server.push_resets server;
    bp_escalated = escalated;
    bp_converged = converged;
  }

(* --- Long-haul write pressure ------------------------------------------ *)

type lh_config = {
  lh_employees : int;
  lh_seed : int;
  lh_updates : int;
  lh_leaves : int;  (** Polling leaves (leaf 0 is the laggard). *)
  lh_poll_every : int;  (** Updates between a normal leaf's polls. *)
  lh_history_limit : int;
  lh_queue_limit : int;
}

let lh_default_config =
  {
    lh_employees = 4000;
    lh_seed = 17;
    lh_updates = 12000;
    lh_leaves = 6;
    lh_poll_every = 50;
    lh_history_limit = 400;
    lh_queue_limit = 64;
  }

let lh_smoke_config =
  {
    lh_employees = 1200;
    lh_seed = 17;
    lh_updates = 1500;
    lh_leaves = 4;
    lh_poll_every = 40;
    lh_history_limit = 60;
    lh_queue_limit = 16;
  }

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

(* A long committed-update stream against a master with both bounds
   set: leaf 0 never polls (its session history must hit the HWM and
   escalate instead of growing with the drift), a persist leaf stops
   draining a third of the way in (its queue must overflow and retire),
   and everyone else polls on a steady cadence.  At the end every
   participant — laggard and stalled leaf included — must reconverge
   through the degraded escalations. *)
let run_long_haul cfg =
  let dcfg =
    {
      default_config with
      dr_employees = cfg.lh_employees;
      dr_seed = cfg.lh_seed;
    }
  in
  let fx = make_fixture dcfg in
  Resync.Master.set_history_limit fx.fx_master (Some cfg.lh_history_limit);
  Resync.Server.set_queue_limit (Resync.Master.server fx.fx_master) (Some cfg.lh_queue_limit);
  let backend = Enterprise.backend fx.fx_dir in
  let leaf_depts =
    List.init cfg.lh_leaves (fun i ->
        dept_number ~division:(i mod 8) ~dept:(i / 8))
  in
  let persist_dept = dept_number ~division:(cfg.lh_leaves mod 8) ~dept:1 in
  let poll_consumers =
    List.map
      (fun d -> Resync.Consumer.create (dept_query fx d))
      leaf_depts
  in
  let persist_consumer =
    Resync.Consumer.create (dept_query fx persist_dept)
  in
  let poll i c =
    match
      Resync.Consumer.sync_over c fx.fx_transport ~host:master_host
        ~from:(Printf.sprintf "lh-leaf-%d" i)
    with
    | Ok _ -> ()
    | Error e ->
        invalid_arg
          ("Drift.run_long_haul: poll: "
          ^ Resync.Consumer.sync_error_to_string e)
  in
  List.iteri poll poll_consumers;
  (match
     Resync.Consumer.connect_persist persist_consumer fx.fx_transport
       ~host:master_host ~from:"lh-persist"
   with
  | Ok _ -> ()
  | Error e ->
      invalid_arg
        ("Drift.run_long_haul: persist: "
        ^ Resync.Consumer.sync_error_to_string e));
  let all_depts = persist_dept :: leaf_depts in
  let emp_pool =
    Enterprise.employees fx.fx_dir |> Array.to_list
    |> List.filter (fun e -> List.mem e.Enterprise.emp_dept all_depts)
    |> Array.of_list
  in
  if Array.length emp_pool = 0 then
    invalid_arg "Drift.run_long_haul: no employees in the subscribed depts";
  let pending_max_seen = ref 0 in
  for i = 0 to cfg.lh_updates - 1 do
    let e = emp_pool.(i mod Array.length emp_pool) in
    (match
       Backend.apply backend
         (Update.modify e.Enterprise.emp_dn
            [ Update.replace_values "description" [ Printf.sprintf "lh-%d" i ] ])
     with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Drift.run_long_haul: " ^ e));
    let _, biggest = Resync.Master.pending_stats fx.fx_master in
    if biggest > !pending_max_seen then pending_max_seen := biggest;
    if i = cfg.lh_updates / 3 then
      Resync.Consumer.pause_connection persist_consumer;
    if (i + 1) mod cfg.lh_poll_every = 0 then
      (* Leaf 0 is the laggard: it never polls during the run. *)
      List.iteri (fun j c -> if j > 0 then poll j c) poll_consumers
  done;
  Resync.Consumer.resume_connection persist_consumer;
  Resync.Server.flush_pushes (Resync.Master.server fx.fx_master);
  Ldap_sim.Engine.run (Network.engine fx.fx_net);
  List.iteri poll poll_consumers;
  (match
     Resync.Consumer.ensure_persist persist_consumer fx.fx_transport
       ~host:master_host ~from:"lh-persist"
   with
  | Ok _ -> ()
  | Error e ->
      invalid_arg
        ("Drift.run_long_haul: reconnect: "
        ^ Resync.Consumer.sync_error_to_string e));
  let converged_one c =
    let expected = Backend.count_matching backend (Resync.Consumer.query c) in
    Resync.Consumer.size c = expected
    && Seq.for_all
         (fun e ->
           match Backend.find backend (Entry.dn e) with
           | Some e' -> Entry.equal e e'
           | None -> false)
         (Resync.Consumer.entries_seq c)
  in
  let participants = persist_consumer :: poll_consumers in
  {
    lh_committed = cfg.lh_updates;
    lh_history_overflows = Resync.Master.history_overflows fx.fx_master;
    lh_push_overflows = Resync.Master.push_overflows fx.fx_master;
    lh_pending_max_seen = !pending_max_seen;
    lh_push_peak = Resync.Server.push_queue_peak (Resync.Master.server fx.fx_master);
    lh_converged =
      List.length (List.filter converged_one participants);
    lh_participants = List.length participants;
  }

let lh_gates_pass cfg p =
  p.lh_history_overflows > 0
  && p.lh_push_overflows > 0
  && p.lh_pending_max_seen <= cfg.lh_history_limit + 1
  && p.lh_push_peak <= cfg.lh_queue_limit + 1
  && p.lh_converged = p.lh_participants

(* --- Whole sweep + gates ----------------------------------------------- *)

type gates = {
  g_geo_delta_le_half_cold : bool;
  g_hit_ratio_recovers : bool;
  g_queue_bounded : bool;
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

let recover_threshold = 0.6

let gates_of ~delta ~cold ~stall ~overflow =
  let geo_d = (find_phase delta "geo-flip").pp_transition_bytes in
  let geo_c = (find_phase cold "geo-flip").pp_transition_bytes in
  let recovers =
    List.for_all
      (fun name ->
        let p = find_phase delta name in
        p.pp_tail_hit >= recover_threshold && p.pp_tail_hit >= p.pp_head_hit)
      [ "flash-crowd"; "geo-flip"; "join-mid-drift" ]
    && (find_phase delta "rename-storm").pp_tail_hit >= recover_threshold
  in
  let bounded p =
    p.bp_queue_peak <= p.bp_limit + 1
    && p.bp_queue_total_after = 0 && p.bp_converged
  in
  {
    g_geo_delta_le_half_cold = geo_c > 0 && 2 * geo_d <= geo_c;
    g_hit_ratio_recovers = recovers;
    g_queue_bounded =
      bounded stall && bounded overflow && overflow.bp_overflows > 0
      && overflow.bp_escalated && stall.bp_overflows = 0;
    g_no_failed_installs =
      delta.rr_failed_installs = 0 && cold.rr_failed_installs = 0;
  }

let run ?(config = default_config) () =
  let delta = run_mode config Controller.Delta in
  let cold = run_mode config Controller.Cold_swap in
  let stall = run_backpressure config ~overflow:false in
  let overflow = run_backpressure config ~overflow:true in
  {
    sw_config = config;
    sw_delta = delta;
    sw_cold = cold;
    sw_bp_stall = stall;
    sw_bp_overflow = overflow;
    sw_gates = gates_of ~delta ~cold ~stall ~overflow;
  }
