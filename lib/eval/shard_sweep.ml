open Ldap
open Ldap_shard
module Enterprise = Ldap_dirgen.Enterprise
module Prng = Ldap_dirgen.Prng
module Consumer = Ldap_resync.Consumer
module Transport = Ldap_resync.Transport
module Medium = Ldap_store.Medium

type config = {
  employees : int;
  countries : int;
  writes : int;
  queries : int;
  crash_updates : int;
}

let default_config =
  {
    employees = 4_000;
    countries = 20;
    writes = 2_000;
    queries = 200;
    crash_updates = 40;
  }

let smoke_config =
  {
    employees = 800;
    countries = 10;
    writes = 240;
    queries = 60;
    crash_updates = 10;
  }

let shard_counts = [ 1; 2; 4; 8 ]

(* Virtual ticks one write occupies a shard. *)
let service_time = 4

(* Seeds the directory and every stream. *)
let seed = 42

type point = {
  sp_shards : int;
  sp_makespan : int;
  sp_throughput : float;
  sp_speedup : float;
  sp_single_cover_max : int;
  sp_fanout_avg : float;
  sp_fanout_ratio : float;
  sp_plan_hit_ratio : float;
  sp_warm_bytes : int;
  sp_cold_bytes : int;
  sp_wal_replayed : int;
  sp_recover_ok : bool;
}

let must = function Ok x -> x | Error e -> failwith ("Shard sweep: " ^ e)

let phone prng =
  Printf.sprintf "%03d-%04d" (Prng.int prng 1000) (Prng.int prng 10000)

(* The routed write burst: modifies over uniformly random employees,
   so shard load follows the per-country employee distribution. *)
let write_burst ent prng n =
  let emps = Enterprise.employees ent in
  List.init n (fun _ ->
      let e = emps.(Prng.int prng (Array.length emps)) in
      Update.modify e.Enterprise.emp_dn
        [ Update.replace_values "telephonenumber" [ phone prng ] ])

(* The fan-out query mix: block-prefix filters (single-shard),
   department and mail filters (no organized key: broadcast),
   geography-anchored scans and serial+department conjunctions. *)
let query_mix ent prng n =
  let cfg = Enterprise.config ent in
  let root = Enterprise.root_dn ent in
  let depts = Enterprise.dept_numbers ent in
  List.init n (fun _ ->
      let country = Prng.int prng cfg.Enterprise.countries in
      let block = Enterprise.serial_block ent country in
      match Prng.int prng 5 with
      | 0 | 1 ->
          Query.make ~base:root
            (Filter.of_string_exn (Printf.sprintf "(serialnumber=%s*)" block))
      | 2 -> Scenario.dept_query ent depts.(Prng.int prng (Array.length depts))
      | 3 ->
          Query.make
            ~base:(Enterprise.country_dn ent country)
            (Filter.of_string_exn "(objectclass=inetorgperson)")
      | _ ->
          Query.make ~base:root
            (Filter.of_string_exn
               (Printf.sprintf "(&(serialnumber=%s*)(departmentnumber=%s))"
                  block
                  depts.(Prng.int prng (Array.length depts)))))

let build_router ent ~shards transport =
  let partition = Partition.of_enterprise ent ~shards in
  let masters =
    Array.init shards (fun i ->
        Shard_master.create Schema.default ~id:i)
  in
  let router = Router.create partition transport masters in
  must (Router.seed_from_backend router (Enterprise.backend ent));
  router

(* --- Per-point measurements -------------------------------------------- *)

let applied router =
  List.map (fun s -> s.Router.ss_applied) (Router.report router).Router.rp_shards

(* Every write of the burst arrives at time 0 and a shard serves its
   writes one after another, so the burst completes when the busiest
   shard has served its share. *)
let measure_throughput router ops =
  let before = applied router in
  List.iter (fun op -> ignore (must (Router.apply router op))) ops;
  let busiest =
    List.fold_left2 (fun acc b a -> max acc (a - b)) 0 before (applied router)
  in
  let makespan = max 1 (service_time * busiest) in
  (makespan, float_of_int (List.length ops) /. float_of_int makespan)

let measure_fanout ent router queries =
  let partition = Router.partition router in
  let shards = Partition.shards partition in
  let root = Enterprise.root_dn ent in
  let single_cover_max =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc block ->
            let q =
              Query.make ~base:root
                (Filter.of_string_exn
                   (Printf.sprintf "(serialnumber=%s*)" block))
            in
            max acc (List.length (Router.cover router q)))
          acc
          (Partition.blocks_of partition s))
      0
      (List.init shards Fun.id)
  in
  let total =
    List.fold_left
      (fun acc q -> acc + List.length (Router.cover router q))
      0 queries
  in
  let avg = float_of_int total /. float_of_int (max 1 (List.length queries)) in
  (single_cover_max, avg, avg /. float_of_int shards)

(* One shard crashes and recovers from its durable stores; the
   consumer subscribed through the router resumes its composite
   cookie and must pay only the post-checkpoint delta. *)
let measure_crash config ent router transport prng =
  let partition = Router.partition router in
  let shards = Partition.shards partition in
  let country = if config.countries > 1 then 1 else 0 in
  let block = Enterprise.serial_block ent country in
  let target = Partition.of_serial partition block in
  let q =
    Query.make ~base:(Enterprise.root_dn ent)
      (Filter.of_string_exn (Printf.sprintf "(serialnumber=%s*)" block))
  in
  let medium = Medium.memory () in
  for i = 0 to shards - 1 do
    ignore
      (must
         (Shard_master.open_store (Router.shard router i) medium
            ~prefix:(Printf.sprintf "shard-%d" i)))
  done;
  let consumer = Consumer.create q in
  let sync c =
    match Consumer.sync_over c transport ~host:(Router.host router) with
    | Ok outcome -> outcome
    | Error e -> failwith ("Shard sweep: " ^ Consumer.sync_error_to_string e)
  in
  ignore (sync consumer);
  let burst n =
    let emps = Enterprise.employees_of_country ent country in
    for _ = 1 to n do
      let e = emps.(Prng.int prng (Array.length emps)) in
      ignore
        (must
           (Router.apply router
              (Update.modify e.Enterprise.emp_dn
                 [ Update.replace_values "telephonenumber" [ phone prng ] ])))
    done
  in
  burst config.crash_updates;
  ignore (sync consumer);
  Shard_master.checkpoint (Router.shard router target);
  burst config.crash_updates;
  (* Crash: the in-memory shard is gone; a shard created as it was
     reopens its medium and is swapped back in under the same host. *)
  let recovered = Shard_master.create Schema.default ~id:target in
  let recovery =
    must (Shard_master.open_store recovered medium ~prefix:(Printf.sprintf "shard-%d" target))
  in
  Router.replace_shard router target recovered;
  let net = Transport.network transport in
  Network.reset_stats net;
  ignore (sync consumer);
  let warm_bytes = (Network.stats net).Network.sync_bytes in
  let cold = Consumer.create q in
  Network.reset_stats net;
  ignore (sync cold);
  let cold_bytes = (Network.stats net).Network.sync_bytes in
  let dns c =
    List.sort String.compare
      (List.map (fun e -> Dn.canonical (Entry.dn e)) (Consumer.entries c))
  in
  ( warm_bytes,
    cold_bytes,
    List.length recovery.Shard_master.rc_backend.Ldap_store.Store.records,
    dns consumer = dns cold )

(* Each point's router and shard masters join the scenario's network
   on a transport of their own. *)
let point config (sc : Scenario.t) ~shards =
  let ent = sc.Scenario.enterprise in
  let prng = Prng.create (seed + shards) in
  let transport = Transport.create sc.Scenario.net in
  let router = build_router ent ~shards transport in
  let makespan, throughput =
    measure_throughput router (write_burst ent prng config.writes)
  in
  let single_cover_max, fanout_avg, fanout_ratio =
    measure_fanout ent router (query_mix ent prng config.queries)
  in
  let warm_bytes, cold_bytes, wal_replayed, recover_ok =
    measure_crash config ent router transport prng
  in
  let report = Router.report router in
  let plan_hit_ratio =
    let total = report.Router.rp_plan_hits + report.Router.rp_plan_misses in
    if total = 0 then 0.0
    else float_of_int report.Router.rp_plan_hits /. float_of_int total
  in
  {
    sp_shards = shards;
    sp_makespan = makespan;
    sp_throughput = throughput;
    sp_speedup = 1.0;
    sp_single_cover_max = single_cover_max;
    sp_fanout_avg = fanout_avg;
    sp_fanout_ratio = fanout_ratio;
    sp_plan_hit_ratio = plan_hit_ratio;
    sp_warm_bytes = warm_bytes;
    sp_cold_bytes = cold_bytes;
    sp_wal_replayed = wal_replayed;
    sp_recover_ok = recover_ok;
  }

let run ?(config = default_config) () =
  let sc =
    Scenario.setup
      ~config:
        {
          Enterprise.default_config with
          seed;
          countries = config.countries;
          employees = config.employees;
          target_countries = min 5 (max 1 (config.countries / 2));
        }
      ()
  in
  let points =
    List.map (fun shards -> point config sc ~shards) shard_counts
  in
  let base =
    match List.find_opt (fun p -> p.sp_shards = 1) points with
    | Some p -> p.sp_throughput
    | None -> ( match points with p :: _ -> p.sp_throughput | [] -> 1.0)
  in
  List.map
    (fun p ->
      { p with sp_speedup = (if base > 0.0 then p.sp_throughput /. base else 0.0) })
    points
