(* The drifted crash/restart sweep: per drift fraction, a star of
   division replicas with unsynced durability is checkpointed, a
   fraction of its leaves crashes, a burst of
   [round (drift * employees)] updates lands while they are down, and
   they restart either by Merkle anti-entropy or by cold re-fetch
   (identical seeds).  Expected shape: merkle bytes grow with drift
   while cold bytes stay flat at full-content cost, with the crossover
   well past the sweep's range.

   Gates: both runs converge every affected replica at every drift,
   and at 10% drift merkle bytes stay under a cap times cold bytes.
   The cap is paired with the configuration: 0.25 at full scale, 1.0
   in the smoke run. *)
open Ldap
open Common

type config = {
  consumers : int;  (* leaves in the star *)
  employees : int;
  drifts : float list;  (* each downed replica misses round (drift * employees) updates *)
  horizon : int;  (* virtual time when poll loops stop rescheduling *)
}

let default = ({ consumers = 16; employees = 1200; drifts = [ 0.0; 0.05; 0.1; 0.25; 0.5 ]; horizon = 1200 }, 0.25)
let smoke = ({ consumers = 8; employees = 400; drifts = [ 0.0; 0.1; 0.5 ]; horizon = 800 }, 1.0)

(* One drift fraction's JSON row and the figures its gates read. *)
type point = {
  row : Json.t;
  drift : float;
  affected : int;  (* replicas crashed and restarted *)
  merkle_bytes : int;
  cold_bytes : int;
  merkle_converged : int;
  cold_converged : int;
}

(* One drifted crash/restart scenario: a star of division replicas with
   unsynced durability, checkpointed after the build.  A fraction of
   the leaves crashes {e before} a burst of [round (drift * employees)]
   updates lands at the root, so their durable checkpoints miss exactly
   that drift; they then restart in the given mode — [Merkle] walks the
   hash tree and ships only drifted segments, [Cold] re-fetches
   everything — and the bytes each affected leaf pays to rejoin are
   captured at restart time, before regular polling resumes.  Returns
   (bytes, converged, worst recovery ticks, affected, updates). *)
let run_mode cfg drift mode =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.employees in
  let backend = D.Enterprise.backend ent in
  let base = D.Enterprise.root_dn ent in
  let query_of d =
    Query.make ~base (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%02d*)" d))
  in
  (* Division-prefix filters — department numbers are
     <division><dept>, so the prefix selects a whole division's
     employees and department entries — give each replica a
     substantial slice (a quarter of the directory), measuring the
     hash-tree overhead against a realistic content size unlike the
     tiny single-department filters. *)
  let divisions = 4 in
  let leaf_queries = List.init cfg.consumers (fun i -> query_of (i mod divisions)) in
  let affected = crashed_leaves ~fraction:crash_fraction ~consumers:cfg.consumers in
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
  let updates = int_of_float (Float.round (drift *. float_of_int cfg.employees)) in
  let stream = D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 } in
  let crash_time = 10 in
  let drift_time = 20 in
  let restart_time = 30 in
  Sim.schedule engine ~time:crash_time (fun () ->
      List.iter
        (fun leaf -> if is_affected (Leaf.name leaf) then Topology.crash_leaf t leaf)
        (Topology.leaves t));
  Sim.schedule engine ~time:drift_time (fun () -> D.Update_stream.steps stream updates);
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
    recovery_ticks t engine ~affected ~restart_time ~poll_every:crash_poll_every ~until:cfg.horizon
  in
  if !restart_failed then failwith "anti-entropy sweep: a leaf failed to restart";
  (!resync_bytes, List.length ticks, List.fold_left max 0 ticks, List.length affected, updates)

let point cfg drift =
  let merkle_bytes, merkle_converged, merkle_ticks, affected, updates =
    run_mode cfg drift Topology.Merkle
  in
  let cold_bytes, cold_converged, cold_ticks, _, _ = run_mode cfg drift Topology.Cold in
  let row =
    Json.(
      Obj
        [
          ("drift", float 2 drift); ("updates", Int updates); ("affected", Int affected);
          ("merkle_bytes", Int merkle_bytes); ("cold_bytes", Int cold_bytes);
          ("merkle_converged", Int merkle_converged); ("cold_converged", Int cold_converged);
          ("merkle_ticks_max", Int merkle_ticks); ("cold_ticks_max", Int cold_ticks);
        ])
  in
  { row; drift; affected; merkle_bytes; cold_bytes; merkle_converged; cold_converged }

let run (config, cap) =
  let points = List.map (point config) config.drifts in
  let rows = List.map (fun p -> p.row) points in
  print_table ~title:"Anti-entropy: Merkle reconciliation vs cold re-fetch by drift"
    ~notes:
      [
        "a fraction of division replicas crash with unsynced journals, a";
        "burst of drift*employees updates lands while they are down, then";
        "they restart: Merkle mode walks root/branch/segment hashes and";
        "ships only drifted segments, cold mode re-fetches everything.";
        "expected: merkle bytes grow with drift, cold stays at full cost";
      ]
    [
      "drift"; "updates"; "affected"; "merkle_bytes"; "cold_bytes"; "merkle_converged";
      "cold_converged"; "merkle_ticks_max"; "cold_ticks_max";
    ]
    rows;
  List.iter
    (fun p ->
      if p.merkle_converged < p.affected then
        failwith
          (Printf.sprintf "anti-entropy: merkle run at drift %.2f left %d replicas diverged"
             p.drift (p.affected - p.merkle_converged));
      if p.cold_converged < p.affected then
        failwith
          (Printf.sprintf "anti-entropy: cold run at drift %.2f left %d replicas diverged"
             p.drift (p.affected - p.cold_converged)))
    points;
  let headline = List.find (fun p -> p.drift = 0.1) points in
  let ratio = float_of_int headline.merkle_bytes /. float_of_int (max 1 headline.cold_bytes) in
  if ratio >= cap then
    failwith
      (Printf.sprintf "anti-entropy: merkle/cold ratio %.3f at 10%% drift exceeds the %.2f gate"
         ratio cap);
  [ ("anti_entropy", Json.List rows) ]
