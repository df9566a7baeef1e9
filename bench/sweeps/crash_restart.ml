(* The durable-store recovery sweep and the randomized WAL-corruption
   sweep.

   Recovery: a star is built, a quarter of its leaves crash after the
   first update batch, more updates are committed while they are down,
   and they restart (or are reparented) once the updates stop.  Four
   modes over identical seeds: "durable" (fsynced journal, clean
   recovery), "durable-torn" (unsynced journal torn by the crash),
   "cold" (no durable state, full re-fetch) and "reparent" (no death:
   the relay-kill and cookie-translation heal as baseline).  Durable
   modes recover from per-leaf media and resume ReSync from the durable
   cookie.  Per mode: the Ber bytes the affected leaves paid upstream
   from recovery start to the horizon, WAL records replayed, per-filter
   stores whose tail was cut, and the virtual time until each affected
   leaf matched the root again.

   Gates: no corruption trial panics or leaves a replica stale, durable
   resume undercuts cold re-fetch, and the reparent heal takes at most
   twice the durable worst case. *)
open Ldap
open Common
module Resync = Ldap_resync
module Filter_replica = Ldap_replication.Filter_replica
module Scenario = Ldap_eval.Scenario
module Medium = Ldap_store.Medium
module Store = Ldap_store.Store

type config = {
  consumers : int;  (* leaves in the star *)
  filters : int;  (* distinct leaf filters *)
  employees : int;
  updates_before : int;  (* committed before the crash *)
  updates_after : int;  (* committed while the leaves are down *)
  horizon : int;  (* virtual time when poll loops stop rescheduling *)
  corruptions : int;  (* trials of the corruption sweep *)
}

let default =
  {
    consumers = 24; filters = 12; employees = 1200; updates_before = 20; updates_after = 40;
    horizon = 2000; corruptions = 40;
  }

let smoke =
  {
    consumers = 8; filters = 3; employees = 300; updates_before = 6; updates_after = 6;
    horizon = 900; corruptions = 12;
  }

type mode = Durable | Durable_torn | Cold | Reparent

let mode_name = function
  | Durable -> "durable"
  | Durable_torn -> "durable-torn"
  | Cold -> "cold"
  | Reparent -> "reparent"

(* A mode's JSON row and the two figures its gates compare. *)
type recovery = { row : Json.t; resync_bytes : int; recover_ticks_max : int }

let recover cfg mode =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.employees in
  let backend = D.Enterprise.backend ent in
  let fleet = Scenario.fleet ~filters:cfg.filters ent in
  let leaf_queries = Scenario.leaf_queries fleet cfg.consumers in
  let affected = crashed_leaves ~fraction:crash_fraction ~consumers:cfg.consumers in
  let is_affected name = List.mem name affected in
  let t =
    match mode with
    | Reparent ->
        (* The reparent baseline: the affected leaves sit under a relay
           node that dies at crash time, so they miss the same updates
           the crashed leaves of the other modes miss, and their
           recovery is cookie-translation plus a degraded resync from
           the root. *)
        let t = Topology.create backend in
        (match Topology.add_node t ~name:"relay" ~parent:(Topology.root t) ~covers:fleet.covers.(0) with
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
        match Topology.build ~shape:Topology.Star ~covers:[] ~leaf_queries backend with
        | Error e -> failwith ("crash-restart build: " ^ e)
        | Ok t -> t)
  in
  (* Durable variants: every leaf journals to its own medium.  The
     clean variant fsyncs each record, so a crash loses nothing; the
     torn variant syncs only at checkpoints and every crash tears the
     unsynced journal tail (the classic partial-write), which recovery
     must truncate. *)
  let fault_prng = D.Prng.create (seed + 3) in
  (match mode with
  | Durable -> Topology.enable_durability ~sync:true t
  | Durable_torn ->
      let faults =
        Medium.Faults.create ~torn_tail:1.0 ~roll:(fun () -> D.Prng.float fault_prng 1.0) ()
      in
      Topology.enable_durability ~faults ~sync:false t;
      Topology.checkpoint_leaves t
  | Cold | Reparent -> ());
  let engine = clock t ~seed:(seed + 2) ~lo:link_lo ~hi:link_hi in
  let stream = D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 } in
  let total_updates = cfg.updates_before + cfg.updates_after in
  let rec update_tick remaining =
    if remaining > 0 then
      Sim.after engine ~delay:update_every (fun () ->
          D.Update_stream.steps stream 1;
          update_tick (remaining - 1))
  in
  update_tick total_updates;
  let crash_time = cfg.updates_before * update_every in
  let restart_time = (total_updates + 1) * update_every in
  (* Bytes already paid by an affected leaf when its recovery starts;
     resync bytes are what it pays on top of this.  Crash modes restart
     with a fresh leaf (baseline 0); reparent keeps the leaf object and
     its stats. *)
  let baselines = Hashtbl.create 8 in
  let replayed = ref 0 in
  let truncations = ref 0 in
  let restart_failed = ref false in
  (match mode with
  | Reparent ->
      Sim.schedule engine ~time:crash_time (fun () ->
          List.iter
            (fun node -> if Node.host node = "relay" then Topology.kill_node t node)
            (Topology.nodes t))
  | Durable | Durable_torn | Cold ->
      Sim.schedule engine ~time:crash_time (fun () ->
          List.iter
            (fun leaf -> if is_affected (Leaf.name leaf) then Topology.crash_leaf t leaf)
            (Topology.leaves t)));
  Sim.schedule engine ~time:restart_time (fun () ->
      match mode with
      | Reparent ->
          (* No process death: the orphaned leaves keep in-memory
             content, and heal re-parents them to the root with cookie
             translation — the next poll resynchronizes degraded from
             the acknowledged CSN. *)
          List.iter
            (fun leaf ->
              let name = Leaf.name leaf in
              if is_affected name then
                Hashtbl.replace baselines name (upstream_bytes (Leaf.stats leaf)))
            (Topology.leaves t);
          Topology.heal t
      | Durable | Durable_torn | Cold ->
          List.iter
            (fun name ->
              Hashtbl.replace baselines name 0;
              match Topology.restart_leaf t ~name with
              | Ok (_, None) -> ()
              | Ok (_, Some r) ->
                  replayed := !replayed + r.Filter_replica.meta_replayed;
                  List.iter
                    (fun (f : Filter_replica.filter_recovery) ->
                      replayed := !replayed + f.fr_replayed;
                      if f.fr_truncated then incr truncations)
                    r.filters
              | Error _ -> restart_failed := true)
            affected);
  let ticks =
    recovery_ticks t engine ~affected ~restart_time ~poll_every:crash_poll_every ~until:cfg.horizon
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
  let recover_ticks_max = List.fold_left max 0 ticks in
  let row =
    Json.(
      Obj
        [
          ("mode", String (mode_name mode)); ("affected", Int (List.length affected));
          ("resync_bytes", Int resync_bytes); ("replayed", Int !replayed);
          ("truncated", Int !truncations); ("recover_ticks_mean", Int (mean ticks));
          ("recover_ticks_max", Int recover_ticks_max); ("converged", Int (List.length ticks));
        ])
  in
  { row; resync_bytes; recover_ticks_max }

(* Grows a reference consumer store — snapshot mid-stream, journal
   records after — then recovers from [corruptions] randomly mutilated
   copies of its files: truncated at an arbitrary byte, or with one
   byte flipped (the WAL in every trial, the snapshot in about a
   third).  Whatever the damage, recovery must return (possibly with
   truncation), never raise — a raise counts as a panic — and must
   never leave the replica serving stale reads: a damaged recovery
   (torn or stale WAL) is repaired in place by the repair ladder
   (Merkle walk, cold re-fetch as fallback), and a clean one resumes
   from its durable cookie with one poll, exactly the path a restarted
   replica takes before answering queries.  A trial still divergent
   afterwards counts as stale.  Returns the summary row and the stale
   and panic counts, both gated to 0. *)
let corruption config =
  let sc = Scenario.setup ~config:(enterprise_config ~employees:config.employees) () in
  let ent = sc.enterprise and transport = sc.transport in
  let host = Scenario.master_host in
  let backend = D.Enterprise.backend ent in
  let query = (Scenario.fleet ~filters:1 ent).queries.(0) in
  let consumer = Resync.Consumer.create query in
  let medium = Medium.memory () in
  let store = Store.create medium ~name:"c" in
  (match Resync.Consumer.open_store consumer store with
  | Ok _ -> ()
  | Error e -> failwith ("corruption sweep open: " ^ e));
  let stream = D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 } in
  let poll () =
    match Resync.Consumer.sync_over consumer transport ~host with
    | Ok _ -> ()
    | Error e -> failwith ("corruption sweep poll: " ^ Resync.Consumer.sync_error_to_string e)
  in
  poll ();
  D.Update_stream.steps stream config.updates_before;
  poll ();
  Resync.Consumer.checkpoint consumer;
  D.Update_stream.steps stream config.updates_after;
  poll ();
  let wal = Option.value ~default:"" (Medium.read medium ~name:"c.wal") in
  let snap = Option.value ~default:"" (Medium.read medium ~name:"c.snap") in
  let canon entries =
    List.sort (fun a b -> compare (Dn.canonical (Entry.dn a)) (Dn.canonical (Entry.dn b))) entries
  in
  let reference = canon (Resync.Content.current backend query) in
  let diverged c =
    let got = canon (Resync.Consumer.entries c) in
    List.length got <> List.length reference || not (List.for_all2 Entry.equal got reference)
  in
  let prng = D.Prng.create (seed + 5) in
  let recovered = ref 0 and truncated = ref 0 and discarded = ref 0 in
  let repaired_merkle = ref 0 and repaired_cold = ref 0 in
  let stale = ref 0 and panics = ref 0 in
  for _ = 1 to config.corruptions do
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
    let m = Medium.memory () in
    let put name s =
      if String.length s > 0 then begin
        Medium.append m ~name s;
        Medium.sync m ~name
      end
    in
    (* The snapshot is replaced atomically in real operation, so only
       the WAL gets arbitrary damage; still flip snapshot bytes in a
       third of the trials to check the CRC path. *)
    put "c.wal" (mutate wal);
    put "c.snap" (if D.Prng.int prng 3 = 0 then mutate snap else snap);
    let fresh = Store.create m ~name:"c" in
    let c = Resync.Consumer.create query in
    match Resync.Consumer.open_store c fresh with
    | Ok r ->
        incr recovered;
        if r.Store.truncated then incr truncated;
        if r.stale > 0 then incr discarded;
        (* Close the recovery before the replica serves reads: damaged
           durable state goes through the repair ladder at once; clean
           state resumes from its coherent durable cookie with one
           poll — which also recovers a cleanly-lost WAL tail via the
           master's degraded reply. *)
        (if r.truncated || r.stale > 0 then
           match Resync.Consumer.repair c transport ~host with
           | Resync.Consumer.Merkle _ -> incr repaired_merkle
           | Cold _ -> incr repaired_cold
         else ignore (Resync.Consumer.sync_over c transport ~host));
        if diverged c then incr stale
    | Error _ -> ()
    | exception _ -> incr panics
  done;
  let row =
    Json.(
      Obj
        [
          ("trials", Int config.corruptions); ("recovered", Int !recovered);
          ("truncated", Int !truncated); ("discarded", Int !discarded);
          ("repaired_merkle", Int !repaired_merkle); ("repaired_cold", Int !repaired_cold);
          ("stale", Int !stale); ("panics", Int !panics);
        ])
  in
  (row, !stale, !panics)

let run config =
  let recoveries = List.map (fun m -> (m, recover config m)) [ Durable; Durable_torn; Cold; Reparent ] in
  let corruption_row, stale, panics = corruption config in
  let rows = List.map (fun (_, r) -> r.row) recoveries in
  print_table ~title:"Crash/restart recovery: durable resume vs cold re-fetch"
    ~notes:
      [
        "a fraction of star leaves crash mid-run, updates land while down,";
        "then they restart; durable modes recover from WAL+snapshot and";
        "resume ReSync from the durable cookie, cold re-fetches everything.";
        "expected: durable resync bytes < cold; torn tails truncate cleanly";
      ]
    [
      "mode"; "affected"; "resync_bytes"; "replayed"; "truncated"; "recover_ticks_mean";
      "recover_ticks_max"; "converged";
    ]
    rows;
  print_table ~title:"WAL corruption sweep"
    ~notes:
      [
        "recoveries from randomly truncated or byte-flipped copies of a journaled";
        "store: every trial must recover or be repaired, none may panic or stay stale";
      ]
    [
      "trials"; "recovered"; "truncated"; "discarded"; "repaired_merkle"; "repaired_cold";
      "stale"; "panics";
    ]
    [ corruption_row ];
  if panics > 0 then failwith "crash-restart: corruption sweep panicked";
  if stale > 0 then failwith "crash-restart: corruption sweep left a replica serving stale content";
  let durable = List.assoc Durable recoveries and cold = List.assoc Cold recoveries in
  let reparent = List.assoc Reparent recoveries in
  if durable.resync_bytes >= cold.resync_bytes then
    failwith "crash-restart: durable resume did not undercut cold re-fetch";
  if reparent.recover_ticks_max > 2 * max 1 durable.recover_ticks_max then
    failwith
      (Printf.sprintf "crash-restart: reparent heal too slow (max %d ticks vs durable %d)"
         reparent.recover_ticks_max durable.recover_ticks_max);
  [ ("crash_restart", Json.List rows); ("corruption", corruption_row) ]
