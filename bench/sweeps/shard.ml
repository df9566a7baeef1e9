(* The sharding sweep: routed writes, covered reads and per-shard crash
   recovery at 1, 2, 4 and 8 shards.

   Per shard count a fresh partition/router is seeded from one shared
   enterprise directory (seed 42), then three things are measured over
   identical seeds:

   - write throughput: a burst of routed modifies arrives at virtual
     time 0 and each shard serves its writes one after another, four
     ticks each, so the makespan is four ticks times the busiest
     shard's write count; throughput is writes over makespan, so
     balanced partitions approach a k-fold speedup at k shards while a
     single shard serializes the burst;
   - read fan-out: the shard covers of a deterministic query mix
     (block-prefix, department, geography-anchored and conjunctive
     filters), against the naive broadcast of contacting every shard;
   - per-shard crash/restart: one shard with durable stores is
     checkpointed, takes a post-checkpoint update burst, crashes and
     recovers; a consumer subscribed through the router resumes its
     composite cookie, and its catch-up bytes are compared with a cold
     re-subscription.

   Gates: single-block filters cover exactly one shard at every count,
   4 shards deliver at least twice the 1-shard write throughput, every
   crash recovery converges and the resumed consumer pays less than a
   cold re-fetch. *)
open Ldap
open Ldap_shard
module Enterprise = Ldap_dirgen.Enterprise
module Prng = Ldap_dirgen.Prng
module Consumer = Ldap_resync.Consumer
module Transport = Ldap_resync.Transport
module Medium = Ldap_store.Medium
module Scenario = Ldap_eval.Scenario
module Json = Ldap_eval.Json

type config = {
  employees : int;
  countries : int;  (* serial blocks, one per country *)
  writes : int;  (* routed write burst per point *)
  queries : int;  (* queries in the fan-out mix per point *)
  crash_updates : int;  (* updates landed between checkpoint and crash *)
}

let default = { employees = 4_000; countries = 20; writes = 2_000; queries = 200; crash_updates = 40 }
let smoke = { employees = 800; countries = 10; writes = 240; queries = 60; crash_updates = 10 }

let shard_counts = [ 1; 2; 4; 8 ]

(* Virtual ticks one write occupies a shard. *)
let service_time = 4

(* Seeds the directory and every stream. *)
let seed = 42

(* One shard count's measurements. *)
type point = {
  shards : int;
  makespan : int;  (* virtual completion time of the write burst *)
  throughput : float;  (* writes per virtual tick *)
  speedup : float;  (* throughput relative to the 1-shard point *)
  single_cover_max : int;  (* worst cover size over every single-block filter *)
  fanout_avg : float;  (* mean cover size of the query mix *)
  fanout_ratio : float;  (* mean cover over the naive broadcast *)
  plan_hit_ratio : float;  (* coverage-plan cache hits over lookups *)
  warm_bytes : int;  (* the subscribed consumer's catch-up after the crash *)
  cold_bytes : int;  (* the same content fetched by a fresh consumer *)
  wal_replayed : int;  (* backend WAL records replayed on recovery *)
  recover_ok : bool;  (* the resumed consumer's content matches the cold fetch *)
}

let must = function Ok x -> x | Error e -> failwith ("Shard sweep: " ^ e)

let phone prng = Printf.sprintf "%03d-%04d" (Prng.int prng 1000) (Prng.int prng 10000)

(* The routed write burst: modifies over uniformly random employees,
   so shard load follows the per-country employee distribution. *)
let write_burst ent prng n =
  let emps = Enterprise.employees ent in
  List.init n (fun _ ->
      let e = emps.(Prng.int prng (Array.length emps)) in
      Update.modify e.Enterprise.emp_dn [ Update.replace_values "telephonenumber" [ phone prng ] ])

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
      | 0 | 1 -> Query.make ~base:root (Filter.of_string_exn (Printf.sprintf "(serialnumber=%s*)" block))
      | 2 -> Scenario.dept_query ent depts.(Prng.int prng (Array.length depts))
      | 3 ->
          Query.make ~base:(Enterprise.country_dn ent country)
            (Filter.of_string_exn "(objectclass=inetorgperson)")
      | _ ->
          Query.make ~base:root
            (Filter.of_string_exn
               (Printf.sprintf "(&(serialnumber=%s*)(departmentnumber=%s))" block
                  depts.(Prng.int prng (Array.length depts)))))

let build_router ent ~shards transport =
  let partition = Partition.of_enterprise ent ~shards in
  let masters = Array.init shards (fun i -> Shard_master.create Schema.default ~id:i) in
  let router = Router.create partition transport masters in
  must (Router.seed_from_backend router (Enterprise.backend ent));
  router

let applied router = List.map (fun s -> s.Router.ss_applied) (Router.report router).Router.rp_shards

(* Every write of the burst arrives at time 0 and a shard serves its
   writes one after another, so the burst completes when the busiest
   shard has served its share. *)
let measure_throughput router ops =
  let before = applied router in
  List.iter (fun op -> ignore (must (Router.apply router op))) ops;
  let busiest = List.fold_left2 (fun acc b a -> max acc (a - b)) 0 before (applied router) in
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
              Query.make ~base:root (Filter.of_string_exn (Printf.sprintf "(serialnumber=%s*)" block))
            in
            max acc (List.length (Router.cover router q)))
          acc (Partition.blocks_of partition s))
      0 (List.init shards Fun.id)
  in
  let total = List.fold_left (fun acc q -> acc + List.length (Router.cover router q)) 0 queries in
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
      (must (Shard_master.open_store (Router.shard router i) medium ~prefix:(Printf.sprintf "shard-%d" i)))
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
    List.sort String.compare (List.map (fun e -> Dn.canonical (Entry.dn e)) (Consumer.entries c))
  in
  ( warm_bytes,
    cold_bytes,
    List.length recovery.Ldap_store.Store.records,
    dns consumer = dns cold )

(* Each point's router and shard masters join the scenario's network
   on a transport of their own; the speedup is filled in once the
   1-shard point is known. *)
let point config (sc : Scenario.t) ~shards =
  let ent = sc.enterprise in
  let prng = Prng.create (seed + shards) in
  let transport = Transport.create sc.net in
  let router = build_router ent ~shards transport in
  let makespan, throughput = measure_throughput router (write_burst ent prng config.writes) in
  let single_cover_max, fanout_avg, fanout_ratio =
    measure_fanout ent router (query_mix ent prng config.queries)
  in
  let warm_bytes, cold_bytes, wal_replayed, recover_ok =
    measure_crash config ent router transport prng
  in
  let report = Router.report router in
  let plan_hit_ratio =
    let total = report.rp_plan_hits + report.rp_plan_misses in
    if total = 0 then 0.0 else float_of_int report.rp_plan_hits /. float_of_int total
  in
  {
    shards; makespan; throughput; speedup = 1.0; single_cover_max; fanout_avg; fanout_ratio;
    plan_hit_ratio; warm_bytes; cold_bytes; wal_replayed; recover_ok;
  }

let json p =
  Json.(
    Obj
      [
        ("shards", Int p.shards); ("makespan", Int p.makespan);
        ("throughput", float 4 p.throughput); ("speedup", float 3 p.speedup);
        ("single_cover_max", Int p.single_cover_max);
        ("fanout_avg", float 3 p.fanout_avg); ("fanout_ratio", float 3 p.fanout_ratio);
        ("plan_hit_ratio", float 3 p.plan_hit_ratio); ("warm_bytes", Int p.warm_bytes);
        ("cold_bytes", Int p.cold_bytes); ("wal_replayed", Int p.wal_replayed);
        ("recover_ok", Bool p.recover_ok);
      ])

let run config =
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
  let points = List.map (fun shards -> point config sc ~shards) shard_counts in
  let base =
    match List.find_opt (fun p -> p.shards = 1) points with
    | Some p -> p.throughput
    | None -> ( match points with p :: _ -> p.throughput | [] -> 1.0)
  in
  let points =
    List.map (fun p -> { p with speedup = (if base > 0.0 then p.throughput /. base else 0.0) }) points
  in
  let rows = List.map json points in
  Common.print_table ~title:"Sharding: routed writes, covered reads, per-shard recovery"
    ~notes:
      [
        "per shard count a router distributes one enterprise directory over";
        "filter-described partitions: a write burst lands at once and each";
        "shard serves its share in turn (throughput = writes/makespan), the";
        "query mix is fanned over containment-derived shard covers, and one";
        "shard crashes and recovers from its WAL+snapshot while a consumer";
        "resumes its composite cookie (warm) vs re-fetching cold.";
      ]
    [
      "shards"; "makespan"; "throughput"; "speedup"; "single_cover_max"; "fanout_avg";
      "fanout_ratio"; "plan_hit_ratio"; "warm_bytes"; "cold_bytes"; "wal_replayed"; "recover_ok";
    ]
    rows;
  List.iter
    (fun p ->
      if p.single_cover_max <> 1 then
        failwith
          (Printf.sprintf "shard: a single-block filter covered %d shards at %d shards"
             p.single_cover_max p.shards);
      if not p.recover_ok then
        failwith (Printf.sprintf "shard: crash recovery diverged at %d shards" p.shards);
      if p.warm_bytes >= p.cold_bytes then
        failwith
          (Printf.sprintf
             "shard: composite-cookie resume (%d B) not cheaper than cold re-fetch (%d B) at %d shards"
             p.warm_bytes p.cold_bytes p.shards))
    points;
  (match List.find_opt (fun p -> p.shards = 4) points with
  | Some p when p.speedup < 2.0 ->
      failwith (Printf.sprintf "shard: 4-shard write speedup %.2fx below the 2x gate" p.speedup)
  | _ -> ());
  [ ("shard", Json.List rows) ]
