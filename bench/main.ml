(* Benchmark harness: micro-benchmarks and the extension sweeps.  The
   paper's own tables and figures have one runner, `ldapctl experiment`
   (pinned by test/experiments_quick.expected); this harness does not
   re-run them.

   Usage: main.exe [--json]
          main.exe SWEEP [--smoke] [--json]

   With no sweep named it runs the micro-benchmarks backing the
   section 7.4 claims about query-processing cost (template vs general
   containment, index lookup cost as the number of stored filters
   grows, substrate primitives such as filter parse/eval, DN algebra
   and indexed search, timed by a hand-rolled warm-up + least-squares
   harness) and the update fan-out sweep (routed vs naive dispatch);
   --json writes them to BENCH_PR2.json.

   SWEEP is one of micro, tree-fanout, latency-staleness,
   crash-restart, anti-entropy, shard, scale or adapt.  An unknown
   sweep or flag is an error (exit 124), never a silent full run.  A
   sweep's --json writes BENCH_PRn.json; with --smoke it writes
   BENCH_PRn.smoke.json instead, so a smoke run never overwrites the
   committed full-scale results.  Every sweep is one row
   of the sweep table below (subcommand, result file, smoke and default
   configuration, run); the sweeps themselves live in Ldap_eval and
   every JSON file goes through Ldap_eval.Json.

   micro runs the compiled-vs-interpreted comparison for the hot paths
   (filter bytecode vs AST interpretation, zero-copy DER writer vs
   string combinators), checks the two implementations agree on every
   fixture, enforces a speedup floor, and with --json writes
   BENCH_PR7.json; --smoke lowers the floor and restricts the JSON to
   the deterministic equivalence counts so CI can diff two runs.

   tree-fanout runs the cascading-topology sweep (flat star vs 2-tier
   tree, Ldap_eval.Sweep); with --json it writes BENCH_PR3.json.

   latency-staleness runs the discrete-event sweep (per-poll response
   time and per-update staleness percentiles, star vs tree, clean vs
   lossy links); with --json it writes BENCH_PR4.json.

   crash-restart runs the durable-store recovery sweep (durable-cookie
   resume, clean and torn-tail, vs cold re-fetch vs reparent) plus the
   randomized WAL-corruption sweep; with --json it writes
   BENCH_PR5.json.

   anti-entropy runs the drifted crash/restart sweep (Merkle hash-tree
   reconciliation vs cold re-fetch across drift fractions); with --json
   it writes BENCH_PR6.json.

   shard runs the partitioned-directory sweep (routed write throughput
   vs shard count, router fan-out vs naive broadcast, per-shard
   crash/restart through the composite-cookie resume); with --json it
   writes BENCH_PR8.json.  Gates: single-block filters cover exactly
   one shard at every count, 4 shards deliver at least twice the
   1-shard write throughput, every crash recovery converges and the
   resumed consumer pays less than a cold re-fetch.

   scale runs the paper-scale content-plane sweep (the full 500k-entry
   enterprise behind a root master, an interior node tier and a
   1000-leaf fleet, Table 1 query mix with Zipf drift and a diurnally
   modulated update stream, against a 60k baseline on the same
   topology); with --json it writes BENCH_PR9.json.  Gates: no node
   falls back to a full-content rescan, spine entries scanned per poll
   stay within 2x of the baseline (snapshot-diff serving is O(diff),
   not O(directory)), live heap words grow sublinearly in leaf count,
   and (full runs) the wall-clock p99 incremental serve time stays
   within 2x of the baseline — initial-content and degraded transfers
   are O(selection) by design and are reported ungated as
   serve_all_p99_us.

   adapt runs the drift scenario sweep (Ldap_eval.Drift): the
   five-phase shifting workload in delta-transition and cold-swap
   modes plus both persist-backpressure scenarios and the long-haul
   write-pressure point (Ldap_eval.Drift.run_long_haul: a sustained
   committed-update stream against a master with both the
   session-history high-water mark and the persist queue bound set, a
   laggard leaf that never polls and a persist leaf that stops
   draining); with --json it writes BENCH_PR10.json.  Gates: the
   geography-flip delta transition ships at most half the cold-swap
   bytes, every drift phase's tail hit ratio recovers, the stalled
   leaf's master-side queue stays bounded and drains, no transition
   leaves failed installs, and in the long-haul point both escalation
   counters fire, both buffers stay within one action of their bounds
   and every participant reconverges.

   Every full (non-smoke) JSON dump also records the process peak RSS
   (VmHWM) so memory regressions show up across PRs; smoke JSON omits
   it to stay bit-deterministic for the CI double-run diffs. *)

open Ldap
module C = Ldap_containment
module Eval = Ldap_eval
module Compile = Ldap_compile

(* --- Timing harness ----------------------------------------------------
   Warm-up iterations first (they fill the memo caches — compiled entry
   views, interned attributes, hashtable resizes — so the fit sees the
   steady state), then wall time is sampled at several batch sizes and
   ns/run is the slope of an ordinary least-squares fit of time against
   iteration count.  The r^2 reported is the standard coefficient of
   determination of that fit, which an intercept term keeps in [0, 1] —
   the previous harness could report negative values on short runs. *)

type fit = { ns : float; r2 : float }

let ols samples =
  let n = float_of_int (List.length samples) in
  let mean f = List.fold_left (fun a s -> a +. f s) 0. samples /. n in
  let mx = mean fst and my = mean snd in
  let sxx, sxy =
    List.fold_left
      (fun (sxx, sxy) (x, y) ->
        (sxx +. ((x -. mx) *. (x -. mx)), sxy +. ((x -. mx) *. (y -. my))))
      (0., 0.) samples
  in
  let b = if sxx > 0. then sxy /. sxx else 0. in
  let a = my -. (b *. mx) in
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let e = y -. a -. (b *. x) in
        acc +. (e *. e))
      0. samples
  in
  let ss_tot =
    List.fold_left (fun acc (_, y) -> acc +. ((y -. my) *. (y -. my))) 0. samples
  in
  { ns = b *. 1e9; r2 = (if ss_tot > 0. then 1. -. (ss_res /. ss_tot) else 1.) }

let measure f =
  for _ = 1 to 256 do
    f ()
  done;
  let time n =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    Sys.time () -. t0
  in
  (* Batches must dwarf the clock granularity for the fit to mean
     anything; grow until one base batch takes ~10 ms of CPU time. *)
  let rec calibrate n = if time n >= 0.01 then n else calibrate (n * 4) in
  let base = calibrate 16 in
  let samples =
    List.concat_map
      (fun m ->
        List.init 2 (fun _ ->
            let n = base * m in
            (float_of_int n, time n)))
      [ 1; 2; 3; 4; 5 ]
  in
  ols samples

(* Slope only, for callers that predate the fit diagnostics. *)
let ns_per_run f = (measure f).ns

(* --- Micro-benchmark fixtures ---------------------------------------- *)


let fixture_entry =
  Entry.make
    (Dn.of_string_exn "cn=john doe 0456,c=aa,o=xyz")
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ "john doe 0456" ]);
      ("sn", [ "doe" ]);
      ("serialNumber", [ "0400456" ]);
      ("mail", [ "jd8f3a21@aa.xyz.com" ]);
      ("departmentNumber", [ "2406" ]);
      ("age", [ "42" ]);
    ]

let serial_filter = Filter.of_string_exn "(serialNumber=0400456)"
let dept_filter = Filter.of_string_exn "(&(departmentNumber=2406)(divisionNumber=24))"
let prefix_filter = Filter.of_string_exn "(serialNumber=04004*)"
let complex_filter =
  Filter.of_string_exn "(&(objectclass=inetOrgPerson)(|(sn=doe)(sn=smith))(age>=30))"

(* Containment takes normal filters, as every query carries. *)
let serial_normal = Filter.normalize serial_filter
let dept_normal = Filter.normalize dept_filter
let prefix_normal = Filter.normalize prefix_filter

let filter_string = "(&(objectclass=inetOrgPerson)(|(sn=doe)(sn=smith))(age>=30))"

let dn_string = "cn=john doe 0456,ou=research,c=us,o=xyz"
let base_dn = Dn.of_string_exn "o=xyz"
let deep_dn = Dn.of_string_exn dn_string

(* A populated index with [n] stored serial-prefix queries, plus one
   query that hits and one that misses. *)
let make_index n =
  let index = C.Containment_index.create () in
  for i = 0 to n - 1 do
    let filter = Filter.of_string_exn (Printf.sprintf "(serialNumber=%05d*)" i) in
    C.Containment_index.add index (Query.make ~base:base_dn filter) i
  done;
  index

let hit_query n = Query.make ~base:base_dn
    (Filter.of_string_exn (Printf.sprintf "(serialNumber=%05d99)" (n / 2)))

let miss_query = Query.make ~base:base_dn (Filter.of_string_exn "(serialNumber=99999x)")

let compiled_condition =
  let left = C.Template.of_string_exn "(serialnumber=_)" in
  let right = C.Template.of_string_exn "(serialnumber=_*)" in
  match C.Symbolic.compile ~left ~right with
  | Some c -> c
  | None -> failwith "compile failed"

let small_backend =
  let b = Backend.create ~indexed:[ "serialnumber" ] () in
  (match
     Backend.add_context b
       (Entry.make base_dn [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ])
   with
  | Ok () -> ()
  | Error e -> failwith e);
  for i = 0 to 4999 do
    let cn = Printf.sprintf "p%05d" i in
    let e =
      Entry.make
        (Dn.child_ava base_dn "cn" cn)
        [
          ("objectclass", [ "inetOrgPerson" ]);
          ("cn", [ cn ]); ("sn", [ cn ]);
          ("serialNumber", [ Printf.sprintf "%07d" i ]);
        ]
    in
    match Backend.apply b (Update.add e) with
    | Ok _ -> ()
    | Error msg -> failwith msg
  done;
  b

let indexed_search_query =
  Query.make ~base:base_dn (Filter.of_string_exn "(serialNumber=0002500)")

let micro_tests =
  [
    ("filter/parse", fun () -> ignore (Filter.of_string_exn filter_string : Filter.t));
    ( "filter/eval",
      fun () -> ignore (Filter.matches complex_filter fixture_entry : bool) );
    ("filter/normalize", fun () -> ignore (Filter.normalize complex_filter : Filter.normal));
    ("dn/parse", fun () -> ignore (Dn.of_string_exn dn_string : Dn.t));
    ("dn/ancestor", fun () -> ignore (Dn.ancestor_of base_dn deep_dn : bool));
    ( "containment/same-template (Prop 3)",
      fun () ->
        ignore (C.Filter_containment.contained serial_normal serial_normal : bool)
    );
    ( "containment/cross-template compiled (Prop 2)",
      fun () ->
        ignore
          (C.Symbolic.eval compiled_condition ~left:[| "0400456" |]
             ~right:[| "04004" |]
            : bool) );
    ( "containment/general (Prop 1)",
      fun () ->
        ignore
          (C.Filter_containment.contained_general serial_normal prefix_normal
            : bool) );
    ( "containment/general conjunctive",
      fun () ->
        ignore
          (C.Filter_containment.contained_general dept_normal dept_normal : bool)
    );
    ( "backend/indexed search",
      fun () -> ignore (Backend.search small_backend indexed_search_query) );
  ]

let index_tests =
  List.concat_map
    (fun n ->
      let index = make_index n in
      let hit = hit_query n in
      [
        ( Printf.sprintf "index/find hit (%d filters)" n,
          fun () -> ignore (C.Containment_index.find_container index hit) );
        ( Printf.sprintf "index/find miss (%d filters)" n,
          fun () -> ignore (C.Containment_index.find_container index miss_query) );
      ])
    [ 50; 200; 800; 3200 ]

(* Returns measured rows (name, ns/run, r^2) for the JSON dump. *)
let run_micro () =
  let measured =
    List.map
      (fun (name, f) ->
        let fit = measure f in
        ("micro/" ^ name, Some fit.ns, Some fit.r2))
      (micro_tests @ index_tests)
  in
  let rows =
    List.map
      (fun (name, ns, r2) ->
        [
          name;
          (match ns with Some v -> Printf.sprintf "%.1f" v | None -> "n/a");
          (match r2 with Some v -> Printf.sprintf "%.4f" v | None -> "n/a");
        ])
      measured
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Micro-benchmarks (section 7.4 processing costs)"
       ~notes:
         [
           "template-based containment (Props 2-3) should be far cheaper than the";
           "general Prop 1 procedure; index lookups should scale with filter count";
         ]
       ~columns:[ "benchmark"; "ns/run"; "r^2" ] ~rows ());
  measured

(* --- Update fan-out sweep ---------------------------------------------
   ns per committed update with N live sessions, routed vs naive
   dispatch.  Each session holds a distinct serialNumber equality
   filter; the measured update toggles the mail attribute of a single
   entry, so it affects exactly one filter's content — the sublinear
   case the predicate index exists for. *)

module R = Ldap_resync

let fanout_sessions = [ 10; 100; 1000 ]

let make_fanout_master ~sessions ~dispatch =
  let b = Backend.create ~indexed:[ "serialnumber" ] () in
  (match
     Backend.add_context b
       (Entry.make base_dn [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ])
   with
  | Ok () -> ()
  | Error e -> failwith e);
  for i = 0 to max 999 (sessions - 1) do
    let cn = Printf.sprintf "p%05d" i in
    let e =
      Entry.make
        (Dn.child_ava base_dn "cn" cn)
        [
          ("objectclass", [ "inetOrgPerson" ]);
          ("cn", [ cn ]); ("sn", [ cn ]);
          ("serialNumber", [ Printf.sprintf "%07d" i ]);
        ]
    in
    match Backend.apply b (Update.add e) with Ok _ -> () | Error msg -> failwith msg
  done;
  let master = R.Master.create ~strategy:R.Master.Session_history ~dispatch b in
  for i = 0 to sessions - 1 do
    let q =
      Query.make ~base:base_dn
        (Filter.of_string_exn (Printf.sprintf "(serialNumber=%07d)" i))
    in
    match R.Master.handle master { R.Protocol.mode = R.Protocol.Poll; cookie = None } q with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  (b, master)

let fanout_measure ~sessions ~dispatch =
  let b, master = make_fanout_master ~sessions ~dispatch in
  ignore master;
  let target = Dn.child_ava base_dn "cn" "p00000" in
  let flip = ref false in
  ns_per_run (fun () ->
      flip := not !flip;
      let v = if !flip then "a@xyz" else "b@xyz" in
      match Backend.apply b (Update.modify target [ Update.replace_values "mail" [ v ] ]) with
      | Ok _ -> ()
      | Error e -> failwith e)

(* Returns (sessions, routed ns/update, naive ns/update) rows. *)
let run_fanout () =
  let measured =
    List.map
      (fun sessions ->
        let routed = fanout_measure ~sessions ~dispatch:R.Master.Routed in
        let naive = fanout_measure ~sessions ~dispatch:R.Master.Naive in
        (sessions, routed, naive))
      fanout_sessions
  in
  let rows =
    List.map
      (fun (sessions, routed, naive) ->
        [
          string_of_int sessions;
          Printf.sprintf "%.1f" routed;
          Printf.sprintf "%.1f" naive;
          Printf.sprintf "%.1fx" (naive /. routed);
        ])
      measured
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Update fan-out: ns/update vs live sessions"
       ~notes:
         [
           "one committed update toggling a non-filter attribute of one entry;";
           "naive dispatch classifies it against every session, routed dispatch";
           "only against the sessions whose filter anchors the update hits";
         ]
       ~columns:[ "sessions"; "routed ns"; "naive ns"; "speedup" ] ~rows ());
  measured

(* --- The sweep table ---------------------------------------------------
   Every sweep is one row of [sweeps] (bottom of the file): its
   subcommand, the BENCH_PRn.json it writes under --json, its smoke and
   default configurations, and a run that prints its tables, fails the
   process on a violated gate and returns its JSON fields.  [run_sweep]
   is the only place a configuration is chosen, and every file goes
   through the one writer, Eval.Json. *)

module Json = Eval.Json
module Sweep = Eval.Sweep
module Drift = Eval.Drift
module Shard_sweep = Eval.Shard_sweep

type sweep =
  | Sweep : {
      name : string;
      doc : string;
      pr : int;
      smoke : 'c;
      default : 'c;
      run : 'c -> (string * Json.t) list;
    }
      -> sweep

(* Smoke results go beside the committed full-scale ones, never over
   them. *)
let bench_path n ~smoke =
  Printf.sprintf
    (if smoke then "BENCH_PR%d.smoke.json" else "BENCH_PR%d.json")
    n

(* Peak process RSS (VmHWM), appended to every BENCH_PR*.json.  Full
   runs only: RSS is inherently nondeterministic, and the smoke outputs
   must diff clean across the CI double runs. *)
let peak_rss () = ("peak_rss_kb", Json.Int (Ldap_topology.Sweep.peak_rss_kb ()))

(* A sweep whose fields carry their own "config" record keeps it in
   place of the smoke/default tag. *)
let run_sweep (Sweep s) ~smoke ~json =
  let fields = s.run (if smoke then s.smoke else s.default) in
  if json then begin
    let path = bench_path s.pr ~smoke in
    let config =
      if List.mem_assoc "config" fields then []
      else [ ("config", Json.String (if smoke then "smoke" else "default")) ]
    in
    Json.write path
      (Json.Obj (config @ fields @ if smoke then [] else [ peak_rss () ]));
    Printf.printf "wrote %s\n%!" path
  end

let fanout_json (sessions, routed, naive) =
  Json.(
    Obj
      [
        ("sessions", Int sessions); ("routed_ns_per_update", float 1 routed);
        ("naive_ns_per_update", float 1 naive); ("speedup", float 2 (naive /. routed));
      ])

let write_json ~path ~micro ~fanout =
  let opt = function Some v -> Json.float 4 v | None -> Json.Null in
  let micro_row (name, ns, r2) =
    Json.Obj [ ("name", Json.String name); ("ns_per_run", opt ns); ("r_square", opt r2) ]
  in
  Json.write path
    (Json.Obj
       [ ("micro", Json.list micro_row micro); ("fanout", Json.list fanout_json fanout); peak_rss () ]);
  Printf.printf "wrote %s\n%!" path

(* --- Cascading topology sweep ----------------------------------------- *)

let run_tree_fanout config =
  let points = Sweep.tree_fanout ~config () in
  Eval.Report.print (Eval.Figures.tree_fanout points);
  let point (p : Sweep.point) =
    Json.(
      Obj
        [
          ("shape", String p.shape); ("consumers", Int p.consumers);
          ("root_sessions", Int p.root_sessions); ("build_root_bytes", Int p.build_root_bytes);
          ("update_root_bytes", Int p.update_root_bytes);
          ("update_total_bytes", Int p.update_total_bytes);
          ("convergence_rounds", Int p.convergence_rounds);
        ])
  in
  [ ("tree_fanout", Json.list point points) ]

(* --- Latency/staleness sweep ------------------------------------------ *)

let lat_json (p : Sweep.lat_point) =
  Json.(
    Obj
      [
        ("shape", String p.lp_shape); ("faults", String p.lp_faults); ("polls", Int p.lp_polls);
        ("response_p50", Int p.lp_resp_p50); ("response_p90", Int p.lp_resp_p90);
        ("response_p99", Int p.lp_resp_p99); ("response_max", Int p.lp_resp_max);
        ("stale_samples", Int p.lp_stale_samples); ("stale_censored", Int p.lp_stale_censored);
        ("stale_mean", Int p.lp_stale_mean); ("stale_p50", Int p.lp_stale_p50);
        ("stale_p90", Int p.lp_stale_p90); ("stale_p99", Int p.lp_stale_p99);
        ("stale_max", Int p.lp_stale_max);
      ])

let run_latency_staleness config =
  let points = Sweep.latency_staleness ~config () in
  Eval.Report.print (Eval.Figures.latency_staleness points);
  [ ("latency_staleness", Json.list lat_json points) ]

let run_crash_restart config =
  let points = Sweep.crash_restart ~config () in
  let corruption = Sweep.corruption_sweep ~config () in
  Eval.Report.print (Eval.Figures.crash_restart points);
  let c = corruption in
  Printf.printf
    "corruption sweep: %d trials, %d recovered, %d truncated, %d discarded, \
     %d merkle-repaired, %d cold-repaired, %d stale, %d panics\n%!"
    c.cs_trials c.cs_recovered c.cs_truncated c.cs_discarded c.cs_repaired_merkle
    c.cs_repaired_cold c.cs_stale c.cs_panics;
  if c.cs_panics > 0 then
    failwith "crash-restart: corruption sweep panicked";
  if c.cs_stale > 0 then
    failwith
      "crash-restart: corruption sweep left a replica serving stale content";
  (let mode m = List.find (fun (p : Sweep.cr_point) -> p.cp_mode = m) points in
   let durable = mode "durable" and cold = mode "cold" in
   let reparent = mode "reparent" in
   if durable.cp_resync_bytes >= cold.cp_resync_bytes then
     failwith "crash-restart: durable resume did not undercut cold re-fetch";
   if reparent.cp_recover_ticks_max > 2 * max 1 durable.cp_recover_ticks_max then
     failwith
       (Printf.sprintf
          "crash-restart: reparent heal too slow (max %d ticks vs durable %d)"
          reparent.cp_recover_ticks_max durable.cp_recover_ticks_max));
  let point (p : Sweep.cr_point) =
    Json.(
      Obj
        [
          ("mode", String p.cp_mode); ("affected", Int p.cp_affected);
          ("resync_bytes", Int p.cp_resync_bytes); ("replayed", Int p.cp_replayed);
          ("truncated", Int p.cp_truncated); ("recover_ticks_mean", Int p.cp_recover_ticks_mean);
          ("recover_ticks_max", Int p.cp_recover_ticks_max); ("converged", Int p.cp_converged);
        ])
  in
  Json.
    [
      ("crash_restart", list point points);
      ( "corruption",
        Obj
          [
            ("trials", Int c.cs_trials); ("recovered", Int c.cs_recovered);
            ("truncated", Int c.cs_truncated); ("discarded", Int c.cs_discarded);
            ("repaired_merkle", Int c.cs_repaired_merkle);
            ("repaired_cold", Int c.cs_repaired_cold); ("stale", Int c.cs_stale);
            ("panics", Int c.cs_panics);
          ] );
    ]

(* --- Anti-entropy drift sweep -----------------------------------------
   The configuration pairs the sweep's with the merkle/cold byte-ratio
   cap at 10% drift: 0.25 at full scale, 1.0 in the smoke run. *)

let run_anti_entropy (config, cap) =
  let points = Sweep.anti_entropy ~config () in
  let ratio (p : Sweep.ae_point) =
    float_of_int p.ap_merkle_bytes /. float_of_int (max 1 p.ap_cold_bytes)
  in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Anti-entropy: Merkle reconciliation vs cold re-fetch by drift"
       ~notes:
         [
           "a fraction of division replicas crash with unsynced journals, a";
           "burst of drift*employees updates lands while they are down, then";
           "they restart: Merkle mode walks root/branch/segment hashes and";
           "ships only drifted segments, cold mode re-fetches everything.";
           "expected: merkle bytes grow with drift, cold stays at full cost";
         ]
       ~columns:
         [
           "drift"; "updates"; "affected"; "merkle B"; "cold B"; "ratio";
           "m conv"; "c conv"; "m ticks"; "c ticks";
         ]
       ~rows:
         (List.map
            (fun (p : Sweep.ae_point) ->
              [
                Printf.sprintf "%.2f" p.ap_drift;
                string_of_int p.ap_updates;
                string_of_int p.ap_affected;
                string_of_int p.ap_merkle_bytes;
                string_of_int p.ap_cold_bytes;
                Printf.sprintf "%.3f" (ratio p);
                string_of_int p.ap_merkle_converged;
                string_of_int p.ap_cold_converged;
                string_of_int p.ap_merkle_ticks_max;
                string_of_int p.ap_cold_ticks_max;
              ])
            points)
       ());
  List.iter
    (fun (p : Sweep.ae_point) ->
      if p.ap_merkle_converged < p.ap_affected then
        failwith
          (Printf.sprintf
             "anti-entropy: merkle run at drift %.2f left %d replicas diverged"
             p.ap_drift
             (p.ap_affected - p.ap_merkle_converged));
      if p.ap_cold_converged < p.ap_affected then
        failwith
          (Printf.sprintf
             "anti-entropy: cold run at drift %.2f left %d replicas diverged"
             p.ap_drift
             (p.ap_affected - p.ap_cold_converged)))
    points;
  (let headline = List.find (fun (p : Sweep.ae_point) -> p.ap_drift = 0.1) points in
   let ratio = ratio headline in
   if ratio >= cap then
     failwith
       (Printf.sprintf
          "anti-entropy: merkle/cold ratio %.3f at 10%% drift exceeds the \
           %.2f gate"
          ratio cap));
  let point (p : Sweep.ae_point) =
    Json.(
      Obj
        [
          ("drift", float 2 p.ap_drift); ("updates", Int p.ap_updates);
          ("affected", Int p.ap_affected); ("merkle_bytes", Int p.ap_merkle_bytes);
          ("cold_bytes", Int p.ap_cold_bytes); ("merkle_converged", Int p.ap_merkle_converged);
          ("cold_converged", Int p.ap_cold_converged);
          ("merkle_ticks_max", Int p.ap_merkle_ticks_max);
          ("cold_ticks_max", Int p.ap_cold_ticks_max);
        ])
  in
  [ ("anti_entropy", Json.list point points) ]

(* --- Shard sweep ------------------------------------------------------ *)

let run_shard config =
  let points = Shard_sweep.run ~config () in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Sharding: routed writes, covered reads, per-shard recovery"
       ~notes:
         [
           "per shard count a router distributes one enterprise directory over";
           "filter-described partitions: a write burst lands at once and each";
           "shard serves its share in turn (throughput = writes/makespan), the";
           "query mix is fanned over containment-derived shard covers, and one";
           "shard crashes and recovers from its WAL+snapshot while a consumer";
           "resumes its composite cookie (warm) vs re-fetching cold.";
         ]
       ~columns:
         [
           "shards"; "makespan"; "thru"; "speedup"; "1-blk cov"; "fanout";
           "ratio"; "plan hit"; "warm B"; "cold B"; "wal"; "recover";
         ]
       ~rows:
         (List.map
            (fun (p : Shard_sweep.point) ->
              [
                string_of_int p.sp_shards;
                string_of_int p.sp_makespan;
                Printf.sprintf "%.3f" p.sp_throughput;
                Printf.sprintf "%.2fx" p.sp_speedup;
                string_of_int p.sp_single_cover_max;
                Printf.sprintf "%.2f" p.sp_fanout_avg;
                Printf.sprintf "%.3f" p.sp_fanout_ratio;
                Printf.sprintf "%.2f" p.sp_plan_hit_ratio;
                string_of_int p.sp_warm_bytes;
                string_of_int p.sp_cold_bytes;
                string_of_int p.sp_wal_replayed;
                (if p.sp_recover_ok then "ok" else "FAIL");
              ])
            points)
       ());
  List.iter
    (fun (p : Shard_sweep.point) ->
      if p.sp_single_cover_max <> 1 then
        failwith
          (Printf.sprintf
             "shard: a single-block filter covered %d shards at %d shards"
             p.sp_single_cover_max p.sp_shards);
      if not p.sp_recover_ok then
        failwith
          (Printf.sprintf "shard: crash recovery diverged at %d shards"
             p.sp_shards);
      if p.sp_warm_bytes >= p.sp_cold_bytes then
        failwith
          (Printf.sprintf
             "shard: composite-cookie resume (%d B) not cheaper than cold \
              re-fetch (%d B) at %d shards"
             p.sp_warm_bytes p.sp_cold_bytes
             p.sp_shards))
    points;
  (match
     List.find_opt (fun (p : Shard_sweep.point) -> p.sp_shards = 4) points
   with
  | Some p when p.sp_speedup < 2.0 ->
      failwith
        (Printf.sprintf
           "shard: 4-shard write speedup %.2fx below the 2x gate"
           p.sp_speedup)
  | _ -> ());
  let point (p : Shard_sweep.point) =
    Json.(
      Obj
        [
          ("shards", Int p.sp_shards); ("makespan", Int p.sp_makespan);
          ("throughput", float 4 p.sp_throughput); ("speedup", float 3 p.sp_speedup);
          ("single_cover_max", Int p.sp_single_cover_max);
          ("fanout_avg", float 3 p.sp_fanout_avg); ("fanout_ratio", float 3 p.sp_fanout_ratio);
          ("plan_hit_ratio", float 3 p.sp_plan_hit_ratio); ("warm_bytes", Int p.sp_warm_bytes);
          ("cold_bytes", Int p.sp_cold_bytes); ("wal_replayed", Int p.sp_wal_replayed);
          ("recover_ok", Bool p.sp_recover_ok);
        ])
  in
  [ ("shard", Json.list point points) ]

(* --- Paper-scale content-plane sweep ---------------------------------- *)

(* One run; [full] adds the wall-clock, RSS and memory fields, which
   smoke JSON omits so it stays bit-deterministic. *)
let scale_run_json ~full (r : Sweep.scale_run) =
  let memory (leaves, live, rss) =
    Json.(Obj [ ("leaves", Int leaves); ("live_words", Int live); ("vm_rss_kb", Int rss) ])
  in
  let searches = if r.sr_query_seconds > 0.0 then float_of_int r.sr_queries /. r.sr_query_seconds else 0.0 in
  Json.(
    Obj
      ([
         ("employees", Int r.sr_employees); ("entries", Int r.sr_entries);
         ("filters", Int r.sr_filters); ("nodes", Int r.sr_nodes); ("leaves", Int r.sr_leaves);
       ]
      @ (if not full then []
         else
           [
             ("memory", list memory r.sr_memory); ("store_bytes", Int r.sr_store_bytes);
             ("build_seconds", float 2 r.sr_build_seconds);
             ("query_seconds", float 3 r.sr_query_seconds);
             ("search_per_second", float 0 searches);
             ("serve_p50_us", float 1 r.sr_serve_p50_us);
             ("serve_p99_us", float 1 r.sr_serve_p99_us);
             ("serve_all_p99_us", float 1 r.sr_serve_all_p99_us);
           ])
      @ [
          ("polls", Int r.sr_polls); ("scanned", Int r.sr_scanned); ("rescans", Int r.sr_rescans);
          ("scanned_per_poll", float 2 (Sweep.scanned_per_poll r));
          ("response_p50", Int r.sr_resp_p50); ("response_p90", Int r.sr_resp_p90);
          ("response_p99", Int r.sr_resp_p99); ("stale_samples", Int r.sr_stale_samples);
          ("stale_censored", Int r.sr_stale_censored); ("stale_p50", Int r.sr_stale_p50);
          ("stale_p99", Int r.sr_stale_p99); ("updates", Int r.sr_updates);
          ("queries", Int r.sr_queries); ("query_hits", Int r.sr_query_hits);
          ("mix", Obj (List.map (fun (k, f) -> (k, float 3 f)) r.sr_mix));
          ("session_pending_total", Int r.sr_pending_total);
          ("session_pending_max", Int r.sr_pending_max); ("history_size", Int r.sr_history_size);
          ("seen_residency", Int r.sr_seen_residency);
          ("cursor_depth_max", Int r.sr_cursor_depth_max);
        ]))

let run_scale config =
  let full = config.Sweep.sc_full in
  let baseline, main = Sweep.scale ~config () in
  let row label (r : Sweep.scale_run) =
    [
      label;
      string_of_int r.sr_entries;
      string_of_int r.sr_leaves;
      string_of_int r.sr_polls;
      Printf.sprintf "%.2f" (Sweep.scanned_per_poll r);
      string_of_int r.sr_rescans;
      string_of_int r.sr_resp_p99;
      string_of_int r.sr_stale_p99;
      string_of_int r.sr_stale_censored;
      string_of_int r.sr_pending_max;
      string_of_int r.sr_cursor_depth_max;
    ]
  in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Paper-scale content plane: baseline vs full directory"
       ~notes:
         [
           "same topology (node tier + leaf fleet over the department filters),";
           "two directory sizes; incremental polls walk only the change spine, so";
           "scan/poll must track the update rate, not the directory size, and no";
           "poll may fall back to a full-content rescan";
         ]
       ~columns:
         [
           "run"; "entries"; "leaves"; "polls"; "scan/poll"; "rescans";
           "resp p99"; "stale p99"; "censored"; "pend max"; "cursor max";
         ]
       ~rows:[ row "baseline" baseline; row "full" main ]
       ());
  Eval.Report.print
    (Eval.Report.make ~title:"Full-directory heap vs leaf count"
       ~notes:
         [
           "live words after Gc.compact as leaves join one topology; replicas";
           "share interned entries, so growth must stay well under linear";
         ]
       ~columns:[ "leaves"; "live Mwords"; "VmRSS MB" ]
       ~rows:
         (List.map
            (fun (leaves, live, rss) ->
              [
                string_of_int leaves;
                Printf.sprintf "%.1f" (float_of_int live /. 1e6);
                (if rss = 0 then "n/a"
                 else Printf.sprintf "%.0f" (float_of_int rss /. 1024.));
              ])
            main.sr_memory)
       ());
  (* Gates. *)
  List.iter
    (fun (label, (r : Sweep.scale_run)) ->
      if r.sr_rescans > 0 then
        failwith
          (Printf.sprintf "scale: %s run fell back to %d full rescans" label
             r.sr_rescans);
      if r.sr_stale_samples = 0 then
        failwith (Printf.sprintf "scale: %s run sampled no staleness" label))
    [ ("baseline", baseline); ("full", main) ];
  let spp_base = Sweep.scanned_per_poll baseline in
  let spp_main = Sweep.scanned_per_poll main in
  if spp_main > Float.max 4.0 (2.0 *. spp_base) then
    failwith
      (Printf.sprintf
         "scale: %.2f spine entries scanned per poll at full size vs %.2f at \
          baseline — snapshot-diff serving is not O(diff)"
         spp_main spp_base);
  let leaf_ratio, live_ratio =
    match main.sr_memory with
    | [] | [ _ ] -> (1.0, 1.0)
    | (l0, w0, _) :: _ ->
        let ln, wn, _ =
          List.nth main.sr_memory
            (List.length main.sr_memory - 1)
        in
        ( float_of_int ln /. float_of_int (max 1 l0),
          float_of_int wn /. float_of_int (max 1 w0) )
  in
  (* Linear growth from the first sample would multiply live words by
     the leaf ratio; shared content must keep it under half that
     slope. *)
  let allowed = 1.0 +. (0.5 *. (leaf_ratio -. 1.0)) in
  if live_ratio > allowed then
    failwith
      (Printf.sprintf
         "scale: live words grew %.2fx over a %.1fx leaf increase (cap \
          %.2fx) — replica memory is not sublinear in consumer count"
         live_ratio leaf_ratio allowed);
  if
    full
    && main.sr_serve_p99_us
       > 2.0 *. Float.max 50.0 baseline.sr_serve_p99_us
  then
    failwith
      (Printf.sprintf
         "scale: p99 incremental serve time %.1fus at full size vs %.1fus \
          at baseline exceeds the 2x gate"
         main.sr_serve_p99_us baseline.sr_serve_p99_us);
  if main.sr_resp_p99 > 2 * max 1 baseline.sr_resp_p99 then
    failwith
      (Printf.sprintf
         "scale: p99 poll response %d ticks at full size vs %d at baseline \
          exceeds the 2x gate"
         main.sr_resp_p99 baseline.sr_resp_p99);
  Printf.printf
    "scale gates: rescans 0/0, scan-per-poll %.2f vs %.2f, live-words \
     %.2fx over %.1fx leaves (cap %.2fx)\n%!"
    spp_base spp_main live_ratio leaf_ratio allowed;
  let passed names = List.map (fun n -> (n, Json.Bool true)) names in
  Json.
    [
      ("baseline", scale_run_json ~full baseline);
      ("scale", scale_run_json ~full main);
      ( "gates",
        Obj
          (passed
             [
               "rescans_zero"; "scanned_per_poll_2x"; "memory_sublinear";
               "response_p99_2x"; "staleness_sampled";
             ]
          @
          if not full then []
          else
            passed [ "serve_p99_2x" ]
            @ [
                ("scanned_per_poll_ratio", float 3 (spp_main /. Float.max 0.001 spp_base));
                ("live_words_ratio", float 3 live_ratio); ("leaf_ratio", float 2 leaf_ratio);
              ]) );
    ]

(* --- Adaptive replication under drift --------------------------------- *)

let report_cell (r : Ldap_adaptive.Transition.report) =
  Printf.sprintf "%dk %dr %ds %dc -%d" r.kept r.rescoped r.seeded r.cold
    r.removed

let lh_json (cfg : Drift.lh_config) (p : Drift.lh_point) =
  Json.(
    Obj
      [
        ("updates", Int p.lh_committed); ("history_limit", Int cfg.lh_history_limit);
        ("queue_limit", Int cfg.lh_queue_limit);
        ("history_overflows", Int p.lh_history_overflows);
        ("push_overflows", Int p.lh_push_overflows);
        ("pending_max_seen", Int p.lh_pending_max_seen); ("push_peak", Int p.lh_push_peak);
        ("converged", Int p.lh_converged); ("participants", Int p.lh_participants);
      ])

(* The configuration pairs the drift sweep's with the long-haul
   point's. *)
let run_adapt (config, lh_config) =
  let sweep = Drift.run ~config () in
  let phase_row mode (p : Drift.phase_point) =
    [
      mode;
      p.pp_name;
      string_of_int p.pp_queries;
      Printf.sprintf "%.2f" p.pp_head_hit;
      Printf.sprintf "%.2f" p.pp_tail_hit;
      string_of_int p.pp_update_bytes;
      string_of_int p.pp_transition_bytes;
      Printf.sprintf "%d (%d)" p.pp_adaptations p.pp_drift_adaptations;
      report_cell p.pp_report;
    ]
  in
  let run_rows label (r : Drift.run_result) =
    (* The join-mid-drift row is the joining replica's own phase; the
       primary's filters are frozen while it catches up. *)
    List.map
      (fun (p : Drift.phase_point) ->
        phase_row
          (if String.equal p.pp_name "join-mid-drift" then label ^ "-joiner"
           else label)
          p)
      r.rr_phases
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Drift sweep: delta transitions vs cold swap"
       ~notes:
         [
           "five-phase scripted workload (warmup, flash crowd, geography";
           "flip, rename storm, replica joining mid-drift), identical seeds";
           "in both modes; head/tail are the phase's first-half and";
           "last-third hit ratios — recovery means the tail climbs back;";
           "plan column: kept / rescoped / seeded / cold installs, -removes";
         ]
       ~columns:
         [
           "run"; "phase"; "queries"; "head"; "tail"; "update B"; "trans B";
           "adapt (drift)"; "plan";
         ]
       ~rows:(run_rows "delta" sweep.sw_delta
              @ run_rows "cold" sweep.sw_cold)
       ());
  let bp_row label (p : Drift.bp_point) =
    [
      label;
      string_of_int p.bp_limit;
      string_of_int p.bp_updates;
      string_of_int p.bp_queue_peak;
      string_of_int p.bp_queue_total_after;
      string_of_int p.bp_overflows;
      string_of_int p.bp_resets;
      (if p.bp_escalated then "yes" else "no");
      (if p.bp_converged then "yes" else "no");
    ]
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Persist backpressure: stalled leaf at the master"
       ~notes:
         [
           "a paused persist connection under a committed-update burst:";
           "within the bound the queue parks and drains on resume; past it";
           "the session is retired and reconnection escalates to a degraded";
           "resync — either way master memory stays O(bound)";
         ]
       ~columns:
         [
           "burst"; "limit"; "updates"; "peak"; "after"; "overflows";
           "resets"; "escalated"; "converged";
         ]
       ~rows:
         [
           bp_row "within-bound" sweep.sw_bp_stall;
           bp_row "overflow" sweep.sw_bp_overflow;
         ]
       ());
  (* Gates. *)
  let g = sweep.sw_gates in
  let geo r = (Drift.find_phase r "geo-flip").pp_transition_bytes in
  if not g.g_geo_delta_le_half_cold then
    failwith
      (Printf.sprintf
         "adapt: geo-flip delta transition shipped %d B vs %d B cold — over \
          the 50%% gate"
         (geo sweep.sw_delta)
         (geo sweep.sw_cold));
  if not g.g_hit_ratio_recovers then
    failwith "adapt: a drift phase's tail hit ratio did not recover";
  if not g.g_queue_bounded then
    failwith "adapt: stalled-leaf persist queue was not bounded at the master";
  if not g.g_no_failed_installs then
    failwith "adapt: a transition plan left failed installs";
  let lh = Drift.run_long_haul lh_config in
  if not (Drift.lh_gates_pass lh_config lh) then
    failwith ("adapt: long-haul gates failed: " ^ Json.to_string (lh_json lh_config lh));
  Printf.printf
    "adapt gates: geo-flip delta %d B <= 50%% of cold %d B, tails recovered, \
     queue peak %d <= %d+1, long-haul converged %d/%d\n%!"
    (geo sweep.sw_delta)
    (geo sweep.sw_cold)
    sweep.sw_bp_overflow.bp_queue_peak
    sweep.sw_bp_overflow.bp_limit lh.lh_converged
    lh.lh_participants;
  let report (r : Ldap_adaptive.Transition.report) =
    Json.(
      Obj
        [
          ("kept", Int r.kept); ("rescoped", Int r.rescoped); ("seeded", Int r.seeded);
          ("cold", Int r.cold); ("removed", Int r.removed); ("failed", Int r.failed);
        ])
  in
  let phase (p : Drift.phase_point) =
    Json.(
      Obj
        [
          ("name", String p.pp_name); ("queries", Int p.pp_queries); ("hits", Int p.pp_hits);
          ("head_hit", float 4 p.pp_head_hit); ("tail_hit", float 4 p.pp_tail_hit);
          ("update_bytes", Int p.pp_update_bytes);
          ("transition_bytes", Int p.pp_transition_bytes);
          ("adaptations", Int p.pp_adaptations);
          ("drift_adaptations", Int p.pp_drift_adaptations); ("report", report p.pp_report);
        ])
  in
  let run (r : Drift.run_result) =
    Json.(
      Obj
        [
          ("mode", String (Ldap_adaptive.Controller.mode_to_string r.rr_mode));
          ("phases", list phase r.rr_phases); ("transition_bytes", Int r.rr_transition_bytes);
          ("adaptations", Int r.rr_adaptations);
          ("drift_adaptations", Int r.rr_drift_adaptations);
          ("unchanged_checks", Int r.rr_unchanged_checks); ("totals", report r.rr_totals);
        ])
  in
  let bp (p : Drift.bp_point) =
    Json.(
      Obj
        [
          ("limit", Int p.bp_limit); ("updates", Int p.bp_updates);
          ("queue_peak", Int p.bp_queue_peak); ("queue_total_after", Int p.bp_queue_total_after);
          ("overflows", Int p.bp_overflows); ("resets", Int p.bp_resets);
          ("escalated", Bool p.bp_escalated); ("converged", Bool p.bp_converged);
        ])
  in
  let c = sweep.sw_config in
  Json.
    [
      ( "config",
        Obj
          [
            ("employees", Int c.dr_employees); ("seed", Int c.dr_seed);
            ("budget", Int c.dr_budget); ("half_life", Int c.dr_half_life);
            ("phase_queries", Int c.dr_phase_queries);
          ] );
      ("delta", run sweep.sw_delta); ("cold", run sweep.sw_cold);
      ("backpressure_stall", bp sweep.sw_bp_stall);
      ("backpressure_overflow", bp sweep.sw_bp_overflow);
      ( "gates",
        Obj
          [
            ("geo_flip_delta_le_half_cold", Bool g.g_geo_delta_le_half_cold);
            ("hit_ratio_recovers", Bool g.g_hit_ratio_recovers);
            ("stalled_queue_bounded", Bool g.g_queue_bounded);
            ("no_failed_installs", Bool g.g_no_failed_installs);
          ] );
      ("long_haul", lh_json lh_config lh);
    ]

(* --- Compiled vs interpreted hot paths -------------------------------- *)

(* A spread of entries for the filter-eval pair: half match the complex
   filter's sn disjunction, ages straddle its >=30 bound, and the last
   entry lacks most attributes (the absent-attribute path). *)
let eval_entries =
  List.init 64 (fun i ->
      let cn = Printf.sprintf "e%02d" i in
      Entry.make
        (Dn.child_ava base_dn "cn" cn)
        [
          ("objectclass", [ "inetOrgPerson" ]);
          ("cn", [ cn ]);
          ("sn", [ (if i mod 2 = 0 then "Doe" else "smith") ]);
          ("age", [ string_of_int (15 + i) ]);
          ("serialNumber", [ Printf.sprintf "%07d" i ]);
        ])
  @ [ Entry.make (Dn.child_ava base_dn "cn" "bare") [ ("cn", [ "bare" ]) ] ]

let micro7_filters = [ serial_filter; dept_filter; prefix_filter; complex_filter ]

(* The pre-writer string-combinator entry encoder, reconstructed as the
   interpreted codec baseline: one intermediate string per nesting
   level, which is exactly the cost the backwards writer removes.  The
   equivalence pass checks it byte-identical to the writer image. *)
let str_tlv tag body =
  let len = String.length body in
  let header =
    if len < 0x80 then Printf.sprintf "%c%c" (Char.chr tag) (Char.chr len)
    else begin
      let rec go n acc =
        if n = 0 then acc
        else go (n lsr 8) (String.make 1 (Char.chr (n land 0xff)) ^ acc)
      in
      let bytes = go len "" in
      Printf.sprintf "%c%c%s" (Char.chr tag)
        (Char.chr (0x80 lor String.length bytes))
        bytes
    end
  in
  header ^ body

let str_entry e =
  let attrs =
    String.concat ""
      (List.map
         (fun (name, vs) ->
           str_tlv 0x30
             (str_tlv 0x04 name
             ^ str_tlv 0x31 (String.concat "" (List.map (str_tlv 0x04) vs))))
         (Entry.attributes e))
  in
  str_tlv 0x64 (str_tlv 0x04 (Dn.to_string (Entry.dn e)) ^ str_tlv 0x30 attrs)

let run_micro7 ~smoke =
  (* Equivalence first: the compiled paths must agree with the
     interpreted oracles on every fixture.  The counts are
     deterministic, so the smoke JSON is diffable across runs. *)
  let filter_cases = ref 0 and filter_agree = ref 0 in
  List.iter
    (fun f ->
      let m = Filter.matcher f in
      List.iter
        (fun e ->
          incr filter_cases;
          if Bool.equal (Filter.matches f e) (m e) then incr filter_agree)
        (fixture_entry :: eval_entries))
    micro7_filters;
  let codec_cases = ref 0 and codec_identical = ref 0 in
  let w = Compile.Wbuf.create () in
  List.iter
    (fun e ->
      incr codec_cases;
      let s = str_entry e in
      Compile.Wbuf.clear w;
      Ber_codec.Der.W.entry w e;
      if String.equal s (Compile.Wbuf.contents w) then incr codec_identical)
    (fixture_entry :: eval_entries);
  let staged_condition = C.Symbolic.Compiled.compile compiled_condition in
  let sym_cases = ref 0 and sym_agree = ref 0 in
  List.iter
    (fun (l, r) ->
      incr sym_cases;
      if
        Bool.equal
          (C.Symbolic.eval compiled_condition ~left:[| l |] ~right:[| r |])
          (C.Symbolic.Compiled.eval staged_condition ~left:[| l |] ~right:[| r |])
      then incr sym_agree)
    [ ("0400456", "04004"); ("0400456", "05"); ("123", "123"); ("", "0") ];
  if !filter_agree <> !filter_cases then
    failwith "micro: compiled filter disagrees with interpreted matches";
  if !codec_identical <> !codec_cases then
    failwith "micro: writer codec image differs from string combinators";
  if !sym_agree <> !sym_cases then
    failwith "micro: staged containment condition disagrees with Symbolic.eval";
  (* Timings: interpreted and compiled forms of the same work, measured
     in the same process by the same harness. *)
  let filter_matcher = Filter.matcher complex_filter in
  let pairs =
    [
      ( "filter/eval",
        (fun () ->
          List.iter
            (fun e -> ignore (Filter.matches complex_filter e : bool))
            eval_entries),
        fun () -> List.iter (fun e -> ignore (filter_matcher e : bool)) eval_entries
      );
      ( "containment/eval (Prop 2)",
        (fun () ->
          ignore
            (C.Symbolic.eval compiled_condition ~left:[| "0400456" |]
               ~right:[| "04004" |]
              : bool)),
        fun () ->
          ignore
            (C.Symbolic.Compiled.eval staged_condition ~left:[| "0400456" |]
               ~right:[| "04004" |]
              : bool) );
      ( "codec/encode entry",
        (fun () -> ignore (str_entry fixture_entry : string)),
        fun () ->
          Compile.Wbuf.clear w;
          Ber_codec.Der.W.entry w fixture_entry );
    ]
  in
  let timed =
    List.map
      (fun (name, interp, comp) ->
        let fi = measure interp and fc = measure comp in
        (name, fi, fc, fi.ns /. fc.ns))
      pairs
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Compiled vs interpreted hot paths"
       ~notes:
         [
           "same work, same process: the interpreted column re-walks the filter";
           "AST / string combinators per call, the compiled column runs the";
           "bytecode program, staged condition or reused writer buffer";
         ]
       ~columns:[ "path"; "interpreted ns"; "compiled ns"; "speedup"; "r^2 (i/c)" ]
       ~rows:
         (List.map
            (fun (name, fi, fc, s) ->
              [
                name;
                Printf.sprintf "%.1f" fi.ns;
                Printf.sprintf "%.1f" fc.ns;
                Printf.sprintf "%.1fx" s;
                Printf.sprintf "%.3f/%.3f" fi.r2 fc.r2;
              ])
            timed)
       ());
  let speedup_of name =
    let _, _, _, s = List.find (fun (n, _, _, _) -> String.equal n name) timed in
    s
  in
  let filter_floor = if smoke then 2.0 else 10.0 in
  let s = speedup_of "filter/eval" in
  if s < filter_floor then
    failwith
      (Printf.sprintf "micro: filter/eval speedup %.1fx below the %.1fx floor" s
         filter_floor);
  (if not smoke then
     let c = speedup_of "codec/encode entry" in
     if c < 1.5 then
       failwith (Printf.sprintf "micro: codec speedup %.1fx below the 1.5x floor" c));
  (* End-to-end context for the full run: the PR 2 fan-out sweep and a
     latency/staleness sweep, both now running over the compiled paths
     (predicate-index dispatch, compiled session matchers, writer
     journalling). *)
  let equivalence =
    Json.(
      Obj
        [
          ("filter_cases", Int !filter_cases);
          ("filter_agree", Int !filter_agree);
          ("codec_cases", Int !codec_cases);
          ("codec_identical", Int !codec_identical);
          ("symbolic_cases", Int !sym_cases);
          ("symbolic_agree", Int !sym_agree);
        ])
  in
  if smoke then [ ("equivalence", equivalence) ]
  else
    let fanout = run_fanout () in
    let lat = Sweep.latency_staleness ~config:Sweep.lat_smoke_config () in
    Json.
      [
        ("equivalence", equivalence);
        ( "micro",
          list
            (fun (name, fi, fc, s) ->
              Obj
                [
                  ("name", String name);
                  ("interpreted_ns", float 1 fi.ns);
                  ("compiled_ns", float 1 fc.ns);
                  ("speedup", float 2 s);
                  ("interpreted_r2", float 4 fi.r2);
                  ("compiled_r2", float 4 fc.r2);
                ])
            timed );
        ("fanout", list fanout_json fanout);
        ("latency_staleness", list lat_json lat);
      ]

(* --- Entry point ------------------------------------------------------ *)

let sweeps =
  [
    Sweep
      {
        name = "micro"; doc = "Compiled-vs-interpreted hot paths."; pr = 7;
        smoke = true; default = false; run = (fun smoke -> run_micro7 ~smoke);
      };
    Sweep
      {
        name = "tree-fanout"; doc = "Flat star vs 2-tier tree fan-out sweep."; pr = 3;
        smoke = Sweep.smoke_config; default = Sweep.default_config; run = run_tree_fanout;
      };
    Sweep
      {
        name = "latency-staleness"; doc = "Discrete-event response-time and staleness sweep.";
        pr = 4; smoke = Sweep.lat_smoke_config; default = Sweep.lat_default_config;
        run = run_latency_staleness;
      };
    Sweep
      {
        name = "crash-restart"; doc = "Durable-store recovery and WAL-corruption sweep.";
        pr = 5; smoke = Sweep.cr_smoke_config; default = Sweep.cr_default_config;
        run = run_crash_restart;
      };
    Sweep
      {
        name = "anti-entropy"; doc = "Merkle vs cold re-fetch across drift."; pr = 6;
        smoke = (Sweep.ae_smoke_config, 1.0); default = (Sweep.ae_default_config, 0.25);
        run = run_anti_entropy;
      };
    Sweep
      {
        name = "shard"; doc = "Partitioned-directory sweep."; pr = 8;
        smoke = Shard_sweep.smoke_config; default = Shard_sweep.default_config; run = run_shard;
      };
    Sweep
      {
        name = "scale"; doc = "Paper-scale content-plane sweep."; pr = 9;
        smoke = Sweep.scale_smoke_config; default = Sweep.scale_default_config; run = run_scale;
      };
    Sweep
      {
        name = "adapt"; doc = "Adaptive replication drift sweep."; pr = 10;
        smoke = (Drift.smoke_config, Drift.lh_smoke_config);
        default = (Drift.default_config, Drift.lh_default_config);
        run = run_adapt;
      };
  ]

open Cmdliner

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let subcommand (Sweep s as row) =
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(
      const (fun smoke json -> run_sweep row ~smoke ~json)
      $ flag "smoke" "Seconds-scale deterministic subset."
      $ flag "json" "Write the results as BENCH_PRn.json (BENCH_PRn.smoke.json with --smoke).")

(* With no sweep named: the micro-benchmarks and the update fan-out
   sweep. *)
let default json =
  let micro = run_micro () in
  let fanout = run_fanout () in
  if json then write_json ~path:"BENCH_PR2.json" ~micro ~fanout

let () =
  let cmd =
    Cmd.group
      (Cmd.info "main" ~doc:"Micro-benchmarks and sweeps.")
      ~default:
        Term.(const default $ flag "json" "Micro-benchmarks and fan-out sweep into BENCH_PR2.json.")
      (List.map subcommand sweeps)
  in
  exit (Cmd.eval cmd)
