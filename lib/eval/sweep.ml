open Ldap
module Resync = Ldap_resync
module R = Ldap_replication
module D = Ldap_dirgen
module Topology = Ldap_topology.Topology
module Leaf = Ldap_topology.Leaf
module Node = Ldap_topology.Node

type point = {
  shape : string;
  consumers : int;
  root_sessions : int;
  build_root_bytes : int;
  update_root_bytes : int;
  update_total_bytes : int;
  convergence_rounds : int;
}

type config = {
  consumers_list : int list;
  filters : int;
  arity : int;
  updates : int;
  employees : int;
}

let default_config =
  {
    consumers_list = [ 100; 200; 500; 1000 ];
    filters = 20;
    arity = 4;
    updates = 200;
    employees = 4000;
  }

let smoke_config =
  {
    consumers_list = [ 24; 48 ];
    filters = 8;
    arity = 2;
    updates = 60;
    employees = 800;
  }

(* Settings that every configuration of the tree-fanout, latency,
   crash/restart and anti-entropy sweeps shares.  The seed seeds the
   directory; offsets from it seed the update stream (+1), the engine
   (+2), the fault rolls (+3) and the corruption trials (+5). *)
let seed = 7

(* Uniform per-link latency bounds, virtual ticks. *)
let link_lo = 2
let link_hi = 8

(* Virtual ticks between committed updates (latency, crash/restart). *)
let update_every = 20

(* Total loss probability of the lossy latency variants, split evenly
   between dropped requests and dropped replies. *)
let drop_rate = 0.2

(* Fraction of leaves crashed (at least one) and virtual ticks between
   a leaf's polls, in the crash/restart and anti-entropy sweeps. *)
let crash_fraction = 0.25
let crash_poll_every = 40

let enterprise_config ~employees =
  {
    D.Enterprise.default_config with
    seed;
    employees;
    countries = 4;
    divisions = 4;
    departments_per_division = 12;
    locations = 8;
    target_countries = 2;
  }

let enterprise ~employees = D.Enterprise.build (enterprise_config ~employees)

let upstream_bytes (s : R.Stats.t) =
  s.R.Stats.sync_bytes + s.R.Stats.fetch_bytes + s.R.Stats.merkle_bytes

let participants_bytes t =
  List.fold_left
    (fun acc l -> acc + upstream_bytes (Leaf.stats l))
    (List.fold_left
       (fun acc n -> acc + upstream_bytes (Node.stats n))
       0 (Topology.nodes t))
    (Topology.leaves t)

let shape_name = function
  | Topology.Star -> "star"
  | Topology.Chain n -> Printf.sprintf "chain%d" n
  | Topology.Tree { arity } -> Printf.sprintf "tree%d" arity

let run_point cfg shape n =
  let ent = enterprise ~employees:cfg.employees in
  let backend = D.Enterprise.backend ent in
  (* Interior nodes store exactly the distinct leaf filters, so a
     node's content is the union of what its leaves need and nothing
     more; leaves pick their filter round-robin, giving the sharing a
     star cannot exploit. *)
  let fleet = Scenario.fleet ~filters:cfg.filters ent in
  let covers = fleet.Scenario.covers.(0) in
  let leaf_queries = Scenario.leaf_queries fleet n in
  match Topology.build ~shape ~covers ~leaf_queries backend with
  | Error e -> failwith ("tree-fanout build: " ^ e)
  | Ok t ->
      let build_root = Topology.root_link_bytes t in
      let build_total = participants_bytes t in
      let stream =
        D.Update_stream.create ent
          { D.Update_stream.default_config with seed = seed + 1 }
      in
      D.Update_stream.steps stream cfg.updates;
      let convergence_rounds =
        match Topology.rounds_to_converge ~max_rounds:12 t with
        | Some r -> r
        | None -> -1
      in
      {
        shape = shape_name shape;
        consumers = n;
        root_sessions = Resync.Master.session_count (Topology.master t);
        build_root_bytes = build_root;
        update_root_bytes = Topology.root_link_bytes t - build_root;
        update_total_bytes = participants_bytes t - build_total;
        convergence_rounds;
      }

let tree_fanout ?(config = default_config) () =
  List.concat_map
    (fun n ->
      [
        run_point config Topology.Star n;
        run_point config (Topology.Tree { arity = config.arity }) n;
      ])
    config.consumers_list

(* --- Latency/staleness sweep ------------------------------------------ *)

type lat_config = {
  lat_consumers : int;
  lat_filters : int;
  lat_arity : int;
  lat_employees : int;
  lat_poll_every : int;
  lat_updates : int;
  lat_horizon : int;
}

let lat_default_config =
  {
    lat_consumers = 48;
    lat_filters = 8;
    lat_arity = 4;
    lat_employees = 2000;
    lat_poll_every = 50;
    lat_updates = 40;
    lat_horizon = 1600;
  }

let lat_smoke_config =
  {
    lat_consumers = 12;
    lat_filters = 4;
    lat_arity = 2;
    lat_employees = 400;
    lat_poll_every = 40;
    lat_updates = 12;
    lat_horizon = 700;
  }

type lat_point = {
  lp_shape : string;
  lp_faults : string;
  lp_polls : int;
  lp_resp_p50 : int;
  lp_resp_p90 : int;
  lp_resp_p99 : int;
  lp_resp_max : int;
  lp_stale_samples : int;
  lp_stale_censored : int;
  lp_stale_mean : int;
  lp_stale_p50 : int;
  lp_stale_p90 : int;
  lp_stale_p99 : int;
  lp_stale_max : int;
}

let percentile ~empty sorted p =
  let n = Array.length sorted in
  if n = 0 then empty
  else sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

let summarize samples =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  let pct = percentile ~empty:0 arr in
  (pct 0.5, pct 0.9, pct 0.99, pct 1.0)

(* Rounded to a tick; 0 for no samples. *)
let mean = function
  | [] -> 0
  | l ->
      int_of_float
        (Float.round (float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)))

(* From here on, exchanges over [t]'s network cost per-link latency in
   virtual time. *)
let clock t ~seed ~lo ~hi =
  let engine = Ldap_sim.Engine.create ~seed () in
  let net = Topology.network t in
  Network.attach_engine net engine;
  Network.set_default_latency net (Ldap_sim.Latency.Uniform { lo; hi });
  engine

(* Per-leaf acknowledgement log, newest first: a completed poll that
   advances a leaf's acknowledged CSN records (CSN, finish time). *)
let record_ack log leaf ~finish =
  let name = Leaf.name leaf in
  let csn = Csn.to_int (Leaf.acked_csn leaf) in
  match Hashtbl.find_opt log name with
  | Some ((last, _) :: _) when csn <= last -> ()
  | past -> Hashtbl.replace log name ((csn, finish) :: Option.value ~default:[] past)

(* Commit-to-leaf staleness: for each committed update (CSN, commit
   time, oldest first) and each leaf, the virtual time from commit
   until the leaf first acknowledged a CSN at or past the update's.
   Pairs never covered within the horizon are counted censored rather
   than sampled.  Returns (samples, censored). *)
let staleness log ~updates leaves =
  let samples = ref [] and censored = ref 0 in
  List.iter
    (fun leaf ->
      let rec go updates acks =
        match (updates, acks) with
        | [], _ -> ()
        | rest, [] -> censored := !censored + List.length rest
        | (u_csn, u_t) :: urest, ((a_csn, a_t) :: _ as acks) ->
            if a_csn >= u_csn then begin
              samples := (a_t - u_t) :: !samples;
              go urest acks
            end
            else go updates (List.tl acks)
      in
      go updates
        (List.rev (Option.value ~default:[] (Hashtbl.find_opt log (Leaf.name leaf)))))
    leaves;
  (!samples, !censored)

(* The first [round (fraction * consumers)] leaves (at least one), by
   the builders' leaf naming (leaf1, leaf2, ...). *)
let crashed_leaves ~fraction ~consumers =
  let n = max 1 (int_of_float (Float.round (fraction *. float_of_int consumers))) in
  List.init n (fun i -> Printf.sprintf "leaf%d" (i + 1))

(* Polls [t] to the horizon and returns, per [affected] leaf that
   converged, the virtual time from [restart_time] to its first
   completed poll matching the root. *)
let recovery_ticks t engine ~affected ~restart_time ~poll_every ~until =
  let recovered_at = Hashtbl.create 8 in
  let on_leaf_poll leaf ~start:_ ~finish =
    let name = Leaf.name leaf in
    if
      List.mem name affected && finish >= restart_time
      && not (Hashtbl.mem recovered_at name)
      && Topology.leaf_converged t leaf
    then Hashtbl.replace recovered_at name finish
  in
  Topology.drive_events ~on_leaf_poll t engine ~poll_every ~until;
  Ldap_sim.Engine.run engine;
  List.filter_map
    (fun name -> Option.map (fun at -> at - restart_time) (Hashtbl.find_opt recovered_at name))
    affected

let run_lat_point cfg shape ~lossy =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.lat_employees in
  let backend = D.Enterprise.backend ent in
  let fleet = Scenario.fleet ~filters:cfg.lat_filters ent in
  let covers = fleet.Scenario.covers.(0) in
  let leaf_queries = Scenario.leaf_queries fleet cfg.lat_consumers in
  (* Faults stay muted during the synchronous build phase so both
     variants start from an identical, fully fetched topology; the roll
     consumes no PRNG draws while muted, keeping runs reproducible. *)
  let faults_active = ref false in
  let fault_prng = D.Prng.create (seed + 3) in
  let faults =
    if not lossy then None
    else
      Some
        (Network.Faults.create
           ~drop_request:(drop_rate /. 2.0)
           ~drop_reply:(drop_rate /. 2.0)
           ~roll:(fun () ->
             if !faults_active then D.Prng.float fault_prng 1.0 else 1.0)
           ())
  in
  match Topology.build ?faults ~shape ~covers ~leaf_queries backend with
  | Error e -> failwith ("latency-staleness build: " ^ e)
  | Ok t ->
      (* The engine attaches only after the build: all fetches above ran
         immediately at time 0. *)
      let engine = clock t ~seed:(seed + 2) ~lo:link_lo ~hi:link_hi in
      faults_active := true;
      (* Update stream: one committed update every [update_every]
         ticks, each recording (CSN, commit time) for the staleness
         match below. *)
      let stream =
        D.Update_stream.create ent
          { D.Update_stream.default_config with seed = seed + 1 }
      in
      let update_times = ref [] in
      let rec update_tick remaining =
        if remaining > 0 then
          Sim.after engine ~delay:update_every (fun () ->
              D.Update_stream.steps stream 1;
              update_times :=
                (Csn.to_int (Backend.csn backend), Sim.now engine) :: !update_times;
              update_tick (remaining - 1))
      in
      update_tick cfg.lat_updates;
      (* Poll loops: per-leaf response times, and an ack record whenever
         a completed poll advances the leaf's acknowledged CSN. *)
      let resp_samples = ref [] in
      let acks = Hashtbl.create (max 4 cfg.lat_consumers) in
      let on_leaf_poll leaf ~start ~finish =
        resp_samples := (finish - start) :: !resp_samples;
        record_ack acks leaf ~finish
      in
      Topology.drive_events ~on_leaf_poll t engine ~poll_every:cfg.lat_poll_every
        ~until:cfg.lat_horizon;
      Sim.run engine;
      let stale_samples, censored =
        staleness acks ~updates:(List.rev !update_times) (Topology.leaves t)
      in
      let resp_p50, resp_p90, resp_p99, resp_max = summarize !resp_samples in
      let stale_p50, stale_p90, stale_p99, stale_max = summarize stale_samples in
      {
        lp_shape = shape_name shape;
        lp_faults = (if lossy then "lossy" else "clean");
        lp_polls = List.length !resp_samples;
        lp_resp_p50 = resp_p50;
        lp_resp_p90 = resp_p90;
        lp_resp_p99 = resp_p99;
        lp_resp_max = resp_max;
        lp_stale_samples = List.length stale_samples;
        lp_stale_censored = censored;
        lp_stale_mean = mean stale_samples;
        lp_stale_p50 = stale_p50;
        lp_stale_p90 = stale_p90;
        lp_stale_p99 = stale_p99;
        lp_stale_max = stale_max;
      }

let latency_staleness ?(config = lat_default_config) () =
  let shapes = [ Topology.Star; Topology.Tree { arity = config.lat_arity } ] in
  List.concat_map
    (fun shape ->
      [ run_lat_point config shape ~lossy:false; run_lat_point config shape ~lossy:true ])
    shapes

(* --- Crash/restart sweep ---------------------------------------------- *)

type cr_config = {
  cr_consumers : int;
  cr_filters : int;
  cr_employees : int;
  cr_updates_before : int;
  cr_updates_after : int;
  cr_horizon : int;
  cr_corruptions : int;
}

let cr_default_config =
  {
    cr_consumers = 24;
    cr_filters = 12;
    cr_employees = 1200;
    cr_updates_before = 20;
    cr_updates_after = 40;
    cr_horizon = 2000;
    cr_corruptions = 40;
  }

let cr_smoke_config =
  {
    cr_consumers = 8;
    cr_filters = 3;
    cr_employees = 300;
    cr_updates_before = 6;
    cr_updates_after = 6;
    cr_horizon = 900;
    cr_corruptions = 12;
  }

type cr_mode = Durable | Durable_torn | Cold | Reparent

let cr_mode_name = function
  | Durable -> "durable"
  | Durable_torn -> "durable-torn"
  | Cold -> "cold"
  | Reparent -> "reparent"

type cr_point = {
  cp_mode : string;
  cp_affected : int;
  cp_resync_bytes : int;
  cp_replayed : int;
  cp_truncated : int;
  cp_recover_ticks_mean : int;
  cp_recover_ticks_max : int;
  cp_converged : int;
}

let run_cr_point cfg mode =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.cr_employees in
  let backend = D.Enterprise.backend ent in
  let fleet = Scenario.fleet ~filters:cfg.cr_filters ent in
  let leaf_queries = Scenario.leaf_queries fleet cfg.cr_consumers in
  let affected =
    crashed_leaves ~fraction:crash_fraction ~consumers:cfg.cr_consumers
  in
  let is_affected name = List.mem name affected in
  let t =
    match mode with
    | Reparent ->
        (* The reparent baseline is PR 3's heal: the affected leaves
           sit under a relay node that dies at crash time, so they miss
           the same updates the crashed leaves of the other modes miss,
           and their recovery is cookie-translation plus a degraded
           resync from the root. *)
        let t = Topology.create backend in
        (match
           Topology.add_node t ~name:"relay" ~parent:(Topology.root t)
             ~covers:fleet.Scenario.covers.(0)
         with
        | Ok _ -> ()
        | Error e -> failwith ("crash-restart relay: " ^ e));
        List.iteri
          (fun i q ->
            let name = Printf.sprintf "leaf%d" (i + 1) in
            let parent = if is_affected name then "relay" else Topology.root t in
            match Topology.add_leaf t ~name ~parent q with
            | Ok _ -> ()
            | Error e -> failwith ("crash-restart leaf: " ^ e))
          leaf_queries;
        t
    | Durable | Durable_torn | Cold -> (
        match
          Topology.build ~shape:Topology.Star ~covers:[] ~leaf_queries backend
        with
        | Error e -> failwith ("crash-restart build: " ^ e)
        | Ok t -> t)
  in
  (* Durable variants: every leaf journals to its own medium.  The
         clean variant fsyncs each record, so a crash loses nothing;
         the torn variant syncs only at checkpoints and every crash
         tears the unsynced journal tail (the classic partial-write),
         which recovery must truncate. *)
      let fault_prng = D.Prng.create (seed + 3) in
      (match mode with
      | Durable -> Topology.enable_durability ~sync:true t
      | Durable_torn ->
          let faults =
            Ldap_store.Medium.Faults.create ~torn_tail:1.0
              ~roll:(fun () -> D.Prng.float fault_prng 1.0)
              ()
          in
          Topology.enable_durability ~faults ~sync:false t;
          Topology.checkpoint_leaves t
      | Cold | Reparent -> ());
      let engine = clock t ~seed:(seed + 2) ~lo:link_lo ~hi:link_hi in
      let stream =
        D.Update_stream.create ent
          { D.Update_stream.default_config with seed = seed + 1 }
      in
      let total_updates = cfg.cr_updates_before + cfg.cr_updates_after in
      let rec update_tick remaining =
        if remaining > 0 then
          Sim.after engine ~delay:update_every (fun () ->
              D.Update_stream.steps stream 1;
              update_tick (remaining - 1))
      in
      update_tick total_updates;
      let crash_time = cfg.cr_updates_before * update_every in
      let restart_time = (total_updates + 1) * update_every in
      (* Bytes already paid by an affected leaf when its recovery
         starts; resync bytes are what it pays on top of this.  Crash
         modes restart with a fresh leaf (baseline 0); reparent keeps
         the leaf object and its stats. *)
      let baselines = Hashtbl.create 8 in
      let replayed = ref 0 in
      let truncations = ref 0 in
      let restart_failed = ref false in
      (match mode with
      | Reparent ->
          Sim.schedule engine ~time:crash_time (fun () ->
              List.iter
                (fun node ->
                  if Node.host node = "relay" then Topology.kill_node t node)
                (Topology.nodes t))
      | Durable | Durable_torn | Cold ->
          Sim.schedule engine ~time:crash_time (fun () ->
              List.iter
                (fun leaf ->
                  if is_affected (Leaf.name leaf) then Topology.crash_leaf t leaf)
                (Topology.leaves t)));
      Sim.schedule engine ~time:restart_time (fun () ->
          match mode with
          | Reparent ->
              (* No process death: the orphaned leaves keep in-memory
                 content, and heal re-parents them to the root with
                 cookie translation — the next poll resynchronizes
                 degraded from the acknowledged CSN. *)
              List.iter
                (fun leaf ->
                  let name = Leaf.name leaf in
                  if is_affected name then
                    Hashtbl.replace baselines name
                      (upstream_bytes (Leaf.stats leaf)))
                (Topology.leaves t);
              Topology.heal t
          | Durable | Durable_torn | Cold ->
              List.iter
                (fun name ->
                  Hashtbl.replace baselines name 0;
                  match Topology.restart_leaf t ~name with
                  | Ok (_, report) -> (
                      match report with
                      | None -> ()
                      | Some r ->
                          replayed := !replayed + r.R.Filter_replica.meta_replayed;
                          List.iter
                            (fun f ->
                              replayed := !replayed + f.R.Filter_replica.fr_replayed;
                              if f.R.Filter_replica.fr_truncated then incr truncations)
                            r.R.Filter_replica.filters)
                  | Error _ -> restart_failed := true)
                affected);
      let recovery_ticks =
        recovery_ticks t engine ~affected ~restart_time ~poll_every:crash_poll_every
          ~until:cfg.cr_horizon
      in
      if !restart_failed then failwith "crash-restart: a leaf failed to restart";
      let resync_bytes =
        List.fold_left
          (fun acc leaf ->
            let name = Leaf.name leaf in
            if is_affected name then
              acc + upstream_bytes (Leaf.stats leaf)
              - Option.value ~default:0 (Hashtbl.find_opt baselines name)
            else acc)
          0 (Topology.leaves t)
      in
      {
        cp_mode = cr_mode_name mode;
        cp_affected = List.length affected;
        cp_resync_bytes = resync_bytes;
        cp_replayed = !replayed;
        cp_truncated = !truncations;
        cp_recover_ticks_mean = mean recovery_ticks;
        cp_recover_ticks_max = List.fold_left max 0 recovery_ticks;
        cp_converged = List.length recovery_ticks;
      }

let crash_restart ?(config = cr_default_config) () =
  List.map (run_cr_point config) [ Durable; Durable_torn; Cold; Reparent ]

(* --- Randomized WAL-corruption sweep ----------------------------------- *)

type corruption_summary = {
  cs_trials : int;
  cs_recovered : int;  (** Recoveries that returned a consumer. *)
  cs_truncated : int;  (** Recoveries that had to cut a torn/corrupt tail. *)
  cs_discarded : int;  (** Recoveries that discarded a stale-generation log. *)
  cs_repaired_merkle : int;  (** Damaged recoveries repaired by Merkle walk. *)
  cs_repaired_cold : int;  (** Damaged recoveries repaired by cold re-fetch. *)
  cs_stale : int;
      (** Trials whose content still diverged from the master after
          recovery completed — forced repair for damaged recoveries, a
          resume poll for clean ones — must be 0: no corruption may
          leave a replica serving stale reads. *)
  cs_panics : int;  (** Recoveries that raised — must be 0. *)
}

let corruption_sweep ?(config = cr_default_config) () =
  (* Grow a reference consumer store — snapshot mid-stream, journal
     records after — then recover from randomly mutilated copies of
     its files: truncated at an arbitrary byte, or with one byte
     flipped.  Whatever the damage, recovery must return (possibly
     with truncation), never raise — and must never leave the replica
     serving stale reads: a damaged recovery (torn or stale WAL) is
     repaired in place by the repair ladder (Merkle walk, cold re-fetch
     as fallback), and a clean one resumes from its durable cookie with
     one poll, exactly the path a restarted replica takes before
     answering queries.  Any trial still divergent afterwards counts
     as stale. *)
  let sc =
    Scenario.setup ~config:(enterprise_config ~employees:config.cr_employees) ()
  in
  let ent = sc.Scenario.enterprise and transport = sc.Scenario.transport in
  let host = Scenario.master_host in
  let backend = D.Enterprise.backend ent in
  let query = (Scenario.fleet ~filters:1 ent).Scenario.queries.(0) in
  let consumer = Resync.Consumer.create query in
  let medium = Ldap_store.Medium.memory () in
  let store = Ldap_store.Store.create medium ~name:"c" in
  (match Resync.Consumer.open_store consumer store with
  | Ok _ -> ()
  | Error e -> failwith ("corruption sweep open: " ^ e));
  let stream =
    D.Update_stream.create ent
      { D.Update_stream.default_config with seed = seed + 1 }
  in
  let poll () =
    match Resync.Consumer.sync_over consumer transport ~host with
    | Ok _ -> ()
    | Error e ->
        failwith ("corruption sweep poll: " ^ Resync.Consumer.sync_error_to_string e)
  in
  poll ();
  D.Update_stream.steps stream config.cr_updates_before;
  poll ();
  Resync.Consumer.checkpoint consumer;
  D.Update_stream.steps stream config.cr_updates_after;
  poll ();
  let wal = Option.value ~default:"" (Ldap_store.Medium.read medium ~name:"c.wal") in
  let snap = Option.value ~default:"" (Ldap_store.Medium.read medium ~name:"c.snap") in
  let canon entries =
    List.sort
      (fun a b -> compare (Dn.canonical (Entry.dn a)) (Dn.canonical (Entry.dn b)))
      entries
  in
  let reference = canon (Resync.Content.current backend query) in
  let diverged c =
    let got = canon (Resync.Consumer.entries c) in
    List.length got <> List.length reference
    || not (List.for_all2 Entry.equal got reference)
  in
  let prng = D.Prng.create (seed + 5) in
  let recovered = ref 0 and truncated = ref 0 and discarded = ref 0 in
  let repaired_merkle = ref 0 and repaired_cold = ref 0 in
  let stale = ref 0 and panics = ref 0 in
  for _ = 1 to config.cr_corruptions do
    let mutate s =
      if String.length s = 0 then s
      else
        match D.Prng.int prng 3 with
        | 0 -> String.sub s 0 (D.Prng.int prng (String.length s))
        | 1 ->
            let i = D.Prng.int prng (String.length s) in
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + D.Prng.int prng 255)));
            Bytes.to_string b
        | _ -> s
    in
    let m = Ldap_store.Medium.memory () in
    let put name s =
      if String.length s > 0 then begin
        Ldap_store.Medium.append m ~name s;
        Ldap_store.Medium.sync m ~name
      end
    in
    (* The snapshot is replaced atomically in real operation, so only
       the WAL gets arbitrary damage; still flip snapshot bytes in a
       third of the trials to check the CRC path. *)
    put "c.wal" (mutate wal);
    put "c.snap" (if D.Prng.int prng 3 = 0 then mutate snap else snap);
    let fresh = Ldap_store.Store.create m ~name:"c" in
    let c = Resync.Consumer.create query in
    match Resync.Consumer.open_store c fresh with
    | Ok r ->
        incr recovered;
        if r.Ldap_store.Store.truncated then incr truncated;
        if r.Ldap_store.Store.stale > 0 then incr discarded;
        (* Close the recovery before the replica serves reads: damaged
           durable state goes through the repair ladder at once; clean
           state resumes from its coherent durable cookie with one
           poll — which also recovers a cleanly-lost WAL tail via the
           master's degraded reply. *)
        let damaged =
          r.Ldap_store.Store.truncated || r.Ldap_store.Store.stale > 0
        in
        (if damaged then
           match Resync.Consumer.repair c transport ~host with
           | Resync.Consumer.Merkle _ -> incr repaired_merkle
           | Cold _ -> incr repaired_cold
         else ignore (Resync.Consumer.sync_over c transport ~host));
        if diverged c then incr stale
    | Error _ -> ()
    | exception _ -> incr panics
  done;
  {
    cs_trials = config.cr_corruptions;
    cs_recovered = !recovered;
    cs_truncated = !truncated;
    cs_discarded = !discarded;
    cs_repaired_merkle = !repaired_merkle;
    cs_repaired_cold = !repaired_cold;
    cs_stale = !stale;
    cs_panics = !panics;
  }

(* --- Anti-entropy drift sweep ------------------------------------------ *)

type ae_config = {
  ae_consumers : int;
  ae_employees : int;
  ae_drifts : float list;
  ae_horizon : int;
}

let ae_default_config =
  {
    ae_consumers = 16;
    ae_employees = 1200;
    ae_drifts = [ 0.0; 0.05; 0.1; 0.25; 0.5 ];
    ae_horizon = 1200;
  }

let ae_smoke_config =
  {
    ae_consumers = 8;
    ae_employees = 400;
    ae_drifts = [ 0.0; 0.1; 0.5 ];
    ae_horizon = 800;
  }

type ae_point = {
  ap_drift : float;
  ap_updates : int;  (** Updates the downed replicas missed. *)
  ap_affected : int;
  ap_merkle_bytes : int;
  ap_cold_bytes : int;
  ap_merkle_converged : int;
  ap_cold_converged : int;
  ap_merkle_ticks_max : int;
  ap_cold_ticks_max : int;
}

(* One drifted crash/restart scenario: a star of division replicas with
   unsynced durability, checkpointed after the build.  A fraction of
   the leaves crashes {e before} a burst of [round (drift * employees)]
   updates lands at the root, so their durable checkpoints miss exactly
   that drift; they then restart in the given mode — [Merkle] walks the
   hash tree and ships only drifted segments, [Cold] re-fetches
   everything — and the bytes each affected leaf pays to rejoin are
   captured at restart time, before regular polling resumes. *)
let run_ae_mode cfg drift mode =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.ae_employees in
  let backend = D.Enterprise.backend ent in
  let base = D.Enterprise.root_dn ent in
  let query_of d =
    Query.make ~base
      (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%02d*)" d))
  in
  (* Division-prefix filters — department numbers are
     <division><dept>, so the prefix selects a whole division's
     employees and department entries — give each replica a
     substantial slice (a quarter of the directory), measuring the
     hash-tree overhead against a realistic content size unlike the
     tiny single-department filters. *)
  let divisions = 4 in
  let leaf_queries =
    List.init cfg.ae_consumers (fun i -> query_of (i mod divisions))
  in
  let affected =
    crashed_leaves ~fraction:crash_fraction ~consumers:cfg.ae_consumers
  in
  let is_affected name = List.mem name affected in
  let t =
    match Topology.build ~shape:Topology.Star ~covers:[] ~leaf_queries backend with
    | Error e -> failwith ("anti-entropy build: " ^ e)
    | Ok t -> t
  in
  (* Unsynced durability: only checkpoints survive a crash, so the
     downed replicas recover exactly their pre-drift checkpoint. *)
  Topology.enable_durability ~sync:false t;
  Topology.checkpoint_leaves t;
  let engine = clock t ~seed:(seed + 2) ~lo:link_lo ~hi:link_hi in
  let updates =
    int_of_float (Float.round (drift *. float_of_int cfg.ae_employees))
  in
  let stream =
    D.Update_stream.create ent
      { D.Update_stream.default_config with seed = seed + 1 }
  in
  let crash_time = 10 in
  let drift_time = 20 in
  let restart_time = 30 in
  Sim.schedule engine ~time:crash_time (fun () ->
      List.iter
        (fun leaf ->
          if is_affected (Leaf.name leaf) then Topology.crash_leaf t leaf)
        (Topology.leaves t));
  Sim.schedule engine ~time:drift_time (fun () ->
      D.Update_stream.steps stream updates);
  let resync_bytes = ref 0 in
  let restart_failed = ref false in
  Sim.schedule engine ~time:restart_time (fun () ->
      List.iter
        (fun name ->
          match Topology.restart_leaf ~mode t ~name with
          | Ok (leaf, _) ->
              (* The Merkle walk (or the cold re-fetch) completes inside
                 the restart, so the leaf's upstream bytes here are
                 exactly its cost to rejoin. *)
              resync_bytes := !resync_bytes + upstream_bytes (Leaf.stats leaf)
          | Error _ -> restart_failed := true)
        affected);
  let ticks =
    recovery_ticks t engine ~affected ~restart_time ~poll_every:crash_poll_every
      ~until:cfg.ae_horizon
  in
  if !restart_failed then failwith "anti-entropy sweep: a leaf failed to restart";
  ( !resync_bytes,
    List.length ticks,
    List.fold_left max 0 ticks,
    List.length affected,
    updates )

let run_ae_point cfg drift =
  let m_bytes, m_conv, m_ticks, affected, updates =
    run_ae_mode cfg drift Topology.Merkle
  in
  let c_bytes, c_conv, c_ticks, _, _ = run_ae_mode cfg drift Topology.Cold in
  {
    ap_drift = drift;
    ap_updates = updates;
    ap_affected = affected;
    ap_merkle_bytes = m_bytes;
    ap_cold_bytes = c_bytes;
    ap_merkle_converged = m_conv;
    ap_cold_converged = c_conv;
    ap_merkle_ticks_max = m_ticks;
    ap_cold_ticks_max = c_ticks;
  }

let anti_entropy ?(config = ae_default_config) () =
  List.map (run_ae_point config) config.ae_drifts

(* --- Paper-scale content-plane sweep -----------------------------------
   End-to-end run of the paper's enterprise at its real size: the full
   directory behind one root master, a tier of interior nodes splitting
   the department filters, and a leaf fleet subscribing them
   round-robin.  Leaves attach in batches so memory can be sampled at
   growing consumer counts on ONE topology; the update stream is
   diurnally modulated over the virtual horizon and the Table 1 query
   mix (with Zipf drift) executes against the leaf replicas (department
   lookups) and the indexed root (everything else). *)

type scale_config = {
  sc_base : D.Enterprise.config;  (* shape; employees/seed overridden *)
  sc_employees : int;
  sc_baseline_employees : int;
  sc_nodes : int;
  sc_leaf_points : int list;
  sc_poll_every : int;
  sc_update_every : int;
  sc_updates : int;
  sc_queries : int;
  sc_horizon : int;
  sc_history_limit : int;
  sc_full : bool;
}

let scale_default_config =
  {
    sc_base = D.Enterprise.default_config;
    sc_employees = 500_000;
    sc_baseline_employees = 60_000;
    sc_nodes = 10;
    sc_leaf_points = [ 250; 500; 1000 ];
    sc_poll_every = 50;
    sc_update_every = 10;
    sc_updates = 200;
    sc_queries = 5000;
    sc_horizon = 3000;
    sc_history_limit = 512;
    sc_full = true;
  }

let scale_smoke_config =
  {
    sc_base =
      {
        D.Enterprise.default_config with
        countries = 4;
        divisions = 4;
        departments_per_division = 12;
        locations = 8;
        target_countries = 2;
      };
    sc_employees = 1_500;
    sc_baseline_employees = 800;
    sc_nodes = 4;
    sc_leaf_points = [ 12; 24; 48 ];
    sc_poll_every = 40;
    sc_update_every = 20;
    sc_updates = 24;
    sc_queries = 200;
    sc_horizon = 600;
    sc_history_limit = 64;
    sc_full = false;
  }

type scale_run = {
  sr_employees : int;
  sr_entries : int;
  sr_filters : int;
  sr_nodes : int;
  sr_leaves : int;
  sr_memory : (int * int * int) list;
      (* (leaves, live words after compaction, VmRSS kB or 0) *)
  sr_store_bytes : int;
  sr_build_seconds : float;
  sr_polls : int;
  sr_scanned : int;
  sr_rescans : int;
  sr_resp_p50 : int;
  sr_resp_p90 : int;
  sr_resp_p99 : int;
  sr_stale_samples : int;
  sr_stale_censored : int;
  sr_stale_p50 : int;
  sr_stale_p99 : int;
  sr_updates : int;
  sr_queries : int;
  sr_query_hits : int;
  sr_mix : (string * float) list;
  sr_query_seconds : float;
  sr_serve_p50_us : float;
  sr_serve_p99_us : float;
  sr_serve_all_p99_us : float;
  sr_pending_total : int;
  sr_pending_max : int;
  sr_history_size : int;
  sr_seen_residency : int;
  sr_cursor_depth_max : int;
}

(* Per-serve wall-clock seconds, unboxed in a growable float array so
   recording one allocates nothing. *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 64; len = 0 }

  let push b x =
    if b.len = Float.Array.length b.data then begin
      let grown = Float.Array.create (2 * b.len) in
      Float.Array.blit b.data 0 grown 0 b.len;
      b.data <- grown
    end;
    Float.Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let sorted b =
    let a = Array.init b.len (Float.Array.get b.data) in
    Array.sort compare a;
    a
end

(* Node serves are timed here, around the node's transport endpoint —
   the node itself reads no clock: every serve goes into [all], the
   ones answered with an incremental reply also into [incr]. *)
let time_serves transport ~host ~all ~incr =
  match Resync.Transport.endpoint transport host with
  | None -> invalid_arg ("Sweep.time_serves: no endpoint " ^ host)
  | Some ep ->
      Resync.Transport.add_endpoint transport ~name:host
        {
          ep with
          Resync.Transport.ep_handle =
            (fun ~push request query ->
              let t0 = Sys.time () in
              let reply = ep.Resync.Transport.ep_handle ~push request query in
              let dt = Sys.time () -. t0 in
              Samples.push all dt;
              (match reply with
              | Ok r when r.Resync.Protocol.kind = Resync.Protocol.Incremental ->
                  Samples.push incr dt
              | Ok _ | Error _ -> ());
              reply);
        }

(* Seeds the scale sweep's directory; offsets from it seed the update
   stream (+1), the engine (+2) and the query workload (+4). *)
let scale_seed = 11

let run_scale_at cfg ~employees =
  let module Sim = Ldap_sim.Engine in
  let t0 = Sys.time () in
  let ent =
    D.Enterprise.build { cfg.sc_base with employees; seed = scale_seed }
  in
  let build_seconds = Sys.time () -. t0 in
  let backend = D.Enterprise.backend ent in
  let all_depts = D.Enterprise.dept_numbers ent in
  let fleet = Scenario.fleet ~nodes:cfg.sc_nodes ent in
  let filters = Array.length fleet.Scenario.queries in
  let node_count = Array.length fleet.Scenario.covers in
  let t = Topology.create backend in
  (* Bounded per-session history at the root: past the high-water mark
     the master escalates stragglers to a snapshot-diff instead of
     buffering for them. *)
  Resync.Master.set_history_limit (Topology.master t) (Some cfg.sc_history_limit);
  Array.iteri
    (fun i covers ->
      match
        Topology.add_node t
          ~name:(Printf.sprintf "node%d" i)
          ~parent:(Topology.root t) ~covers
      with
      | Ok _ -> ()
      | Error e -> failwith ("scale: add_node: " ^ e))
    fleet.Scenario.covers;
  let serves = Samples.create () and incremental_serves = Samples.create () in
  List.iter
    (fun n ->
      time_serves (Topology.transport t) ~host:(Node.host n) ~all:serves
        ~incr:incremental_serves)
    (Topology.nodes t);
  (* Leaves join in batches; after each batch the heap is compacted and
     sampled, so the growth of live words with consumer count is
     measured inside one topology (replicas share interned entries —
     the curve must stay well under linear). *)
  let leaf_points = List.sort_uniq compare cfg.sc_leaf_points in
  let leaves_by_dept = Array.make filters [] in
  let added = ref 0 in
  let memory = ref [] in
  List.iter
    (fun target ->
      while !added < target do
        let i = !added in
        let fidx, node = Scenario.leaf_slot fleet i in
        (match
           Topology.add_leaf t ~name:(Printf.sprintf "leaf%d" i)
             ~parent:(Printf.sprintf "node%d" node)
             fleet.Scenario.queries.(fidx)
         with
        | Ok leaf -> leaves_by_dept.(fidx) <- leaf :: leaves_by_dept.(fidx)
        | Error e -> failwith ("scale: add_leaf: " ^ e));
        incr added
      done;
      Gc.compact ();
      let live = (Gc.stat ()).Gc.live_words in
      memory :=
        (target, live, if cfg.sc_full then Ldap_topology.Sweep.current_rss_kb () else 0)
        :: !memory)
    leaf_points;
  let engine = clock t ~seed:(scale_seed + 2) ~lo:1 ~hi:4 in
  (* Diurnal load: the gap between updates shrinks and stretches with a
     sinusoidal factor in [0.25, 1.75] over a two-day horizon, so polls
     see both quiet and busy spine segments. *)
  let day = max 2 (cfg.sc_horizon / 2) in
  let diurnal now =
    let phase =
      2.0 *. Float.pi *. float_of_int (now mod day) /. float_of_int day
    in
    1.0 +. (0.75 *. sin phase)
  in
  let modulated gap now =
    max 1 (int_of_float (Float.round (float_of_int gap /. diurnal now)))
  in
  let stream =
    D.Update_stream.create ent
      { D.Update_stream.default_config with seed = scale_seed + 1 }
  in
  let update_times = ref [] in
  let updates_done = ref 0 in
  let rec update_tick remaining =
    if remaining > 0 then
      Sim.after engine
        ~delay:(modulated cfg.sc_update_every (Sim.now engine))
        (fun () ->
          D.Update_stream.steps stream 1;
          incr updates_done;
          update_times :=
            (Csn.to_int (Backend.csn backend), Sim.now engine) :: !update_times;
          update_tick (remaining - 1))
  in
  update_tick cfg.sc_updates;
  (* Table 1 query mix with periodic department-popularity drift.
     Department lookups hit a subscribed leaf replica (round-robin over
     the department's leaves); serial/mail/location queries go to the
     indexed root, the paper's split between replica-served and
     directory-served traffic. *)
  let items =
    D.Workload.generate ent
      {
        D.Workload.default_config with
        seed = scale_seed + 4;
        length = cfg.sc_queries;
        dept_drift_every = max 1 (cfg.sc_queries / 8);
      }
  in
  let mix =
    List.map
      (fun (k, f) -> (D.Workload.kind_name k, f))
      (D.Workload.mix_of items)
  in
  let dept_index = Hashtbl.create (2 * filters) in
  Array.iteri (fun j d -> Hashtbl.replace dept_index d j) all_depts;
  let dept_of_item (it : D.Workload.item) =
    Filter.fold_pred
      (fun acc p ->
        match (acc, p) with
        | None, Filter.Equality (a, v)
          when String.lowercase_ascii a = "departmentnumber" ->
            Hashtbl.find_opt dept_index v
        | _ -> acc)
      None (it.D.Workload.query.Query.filter :> Filter.t)
  in
  let rr = Array.make filters 0 in
  let query_hits = ref 0 in
  let query_wall = ref 0.0 in
  let queries_done = ref 0 in
  let run_query (it : D.Workload.item) =
    let q0 = Sys.time () in
    let n =
      match dept_of_item it with
      | Some fidx when leaves_by_dept.(fidx) <> [] ->
          let ls = leaves_by_dept.(fidx) in
          let k = rr.(fidx) in
          rr.(fidx) <- k + 1;
          let leaf = List.nth ls (k mod List.length ls) in
          let stored = fleet.Scenario.queries.(fidx) in
          (match R.Filter_replica.consumer_for (Leaf.replica leaf) stored with
          | Some c ->
              List.length
                (R.Replica.eval_over_store it.D.Workload.query
                   (Resync.Consumer.content c))
          | None -> 0)
      | _ -> (
          match Backend.search backend it.D.Workload.query with
          | Ok r -> List.length r.Backend.entries
          | Error _ -> 0)
    in
    query_wall := !query_wall +. (Sys.time () -. q0);
    query_hits := !query_hits + n;
    incr queries_done
  in
  let q_gap = max 1 (cfg.sc_horizon / max 1 cfg.sc_queries) in
  let qi = ref 0 in
  let rec query_tick () =
    if !qi < Array.length items then
      Sim.after engine ~delay:(modulated q_gap (Sim.now engine)) (fun () ->
          run_query items.(!qi);
          incr qi;
          query_tick ())
  in
  query_tick ();
  let resp_samples = ref [] in
  let acks = Hashtbl.create 1024 in
  let on_leaf_poll leaf ~start ~finish =
    resp_samples := (finish - start) :: !resp_samples;
    record_ack acks leaf ~finish
  in
  Topology.drive_events ~on_leaf_poll t engine ~poll_every:cfg.sc_poll_every
    ~until:cfg.sc_horizon;
  Sim.run engine;
  let stale_samples, censored =
    staleness acks ~updates:(List.rev !update_times) (Topology.leaves t)
  in
  let resp_p50, resp_p90, resp_p99, _ = summarize !resp_samples in
  let stale_p50, _, stale_p99, _ = summarize stale_samples in
  let polls, scanned, rescans =
    List.fold_left
      (fun (a, b, c) n ->
        let p, s, r = Node.cursor_stats n in
        (a + p, b + s, c + r))
      (0, 0, 0) (Topology.nodes t)
  in
  (* Gate serve cost on the incremental population only: initial and
     degraded transfers are O(selection) by design and would otherwise
     drown the O(diff) claim at full directory size. *)
  let serve_sorted = Samples.sorted incremental_serves in
  let serve_all_sorted = Samples.sorted serves in
  let pending_total, pending_max =
    Resync.Master.pending_stats (Topology.master t)
  in
  let seen_residency =
    List.fold_left (fun acc n -> acc + Node.seen_residency n) 0 (Topology.nodes t)
  in
  let cursor_depth_max =
    List.fold_left
      (fun acc n -> List.fold_left max acc (Node.cursor_depths n))
      0 (Topology.nodes t)
  in
  let store = Backend.content_store backend in
  {
    sr_employees = employees;
    sr_entries = Ldap.Content_store.size store;
    sr_filters = filters;
    sr_nodes = node_count;
    sr_leaves = !added;
    sr_memory = List.rev !memory;
    sr_store_bytes = Ldap.Content_store.approx_bytes store;
    sr_build_seconds = build_seconds;
    sr_polls = polls;
    sr_scanned = scanned;
    sr_rescans = rescans;
    sr_resp_p50 = resp_p50;
    sr_resp_p90 = resp_p90;
    sr_resp_p99 = resp_p99;
    sr_stale_samples = List.length stale_samples;
    sr_stale_censored = censored;
    sr_stale_p50 = stale_p50;
    sr_stale_p99 = stale_p99;
    sr_updates = !updates_done;
    sr_queries = !queries_done;
    sr_query_hits = !query_hits;
    sr_mix = mix;
    sr_query_seconds = !query_wall;
    sr_serve_p50_us = 1e6 *. percentile ~empty:0.0 serve_sorted 0.5;
    sr_serve_p99_us = 1e6 *. percentile ~empty:0.0 serve_sorted 0.99;
    sr_serve_all_p99_us = 1e6 *. percentile ~empty:0.0 serve_all_sorted 0.99;
    sr_pending_total = pending_total;
    sr_pending_max = pending_max;
    sr_history_size = Resync.Master.history_size (Topology.master t);
    sr_seen_residency = seen_residency;
    sr_cursor_depth_max = cursor_depth_max;
  }

let scale ?(config = scale_default_config) () =
  (* Baseline first: the peak RSS of the process then belongs to the
     full-size run, which is what BENCH_PR9 reports. *)
  let baseline = run_scale_at config ~employees:config.sc_baseline_employees in
  Gc.compact ();
  let main = run_scale_at config ~employees:config.sc_employees in
  (baseline, main)

let scanned_per_poll r =
  if r.sr_polls = 0 then 0.0
  else float_of_int r.sr_scanned /. float_of_int r.sr_polls
