(* Benchmark harness.

   Two halves:
   1. Experiment regeneration: every table and figure of the paper's
      evaluation (section 7), the protocol illustrations (Figures 2-3)
      and the section 5.2 history ablation, printed as ASCII tables by
      Ldap_eval.Figures.
   2. Micro-benchmarks backing the section 7.4 claims about
      query-processing cost: template vs general containment, index
      lookup cost as the number of stored filters grows, plus substrate
      primitives (filter parse/eval, DN algebra, indexed search), all
      timed by a hand-rolled warm-up + least-squares harness.

   Usage: main.exe [--quick] [--micro-only | --figures-only | --smoke
                   | --json]
          main.exe SWEEP [--quick | --smoke] [--json]
   where SWEEP is one of micro, tree-fanout, latency-staleness,
   crash-restart, anti-entropy, shard, scale (also [--long-haul]) or
   adapt.  An unknown sweep or flag is an error (exit 124), never a
   silent full run.  A sweep's --json writes BENCH_PRn.json; with
   --smoke (or --quick) it writes BENCH_PRn.smoke.json instead, so a
   smoke run never overwrites the committed full-scale results.

   micro runs the compiled-vs-interpreted comparison for the hot paths
   (filter bytecode vs AST interpretation, zero-copy DER writer vs
   string combinators), checks the two implementations agree on every
   fixture, enforces a speedup floor, and with --json writes
   BENCH_PR7.json; --smoke lowers the floor and restricts the JSON to
   the deterministic equivalence counts so CI can diff two runs.

   tree-fanout runs the cascading-topology sweep (flat star vs 2-tier
   tree, Ldap_topology.Sweep); with --json it writes BENCH_PR3.json.

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

   scale --long-haul instead runs the long write-pressure scenario
   (Ldap_adaptive.Drift.run_long_haul): a sustained committed-update
   stream against a master with both the session-history high-water
   mark and the persist queue bound set, a laggard leaf that never
   polls and a persist leaf that stops draining.  Gates: both
   escalation counters fire, both buffers stay within one action of
   their bounds, and every participant reconverges.

   adapt runs the drift scenario sweep (Ldap_adaptive.Drift): the
   five-phase shifting workload in delta-transition and cold-swap
   modes plus both persist-backpressure scenarios and the long-haul
   point; with --json it writes BENCH_PR10.json.  Gates: the
   geography-flip delta transition ships at most half the cold-swap
   bytes, every drift phase's tail hit ratio recovers, the stalled
   leaf's master-side queue stays bounded and drains, and no
   transition leaves failed installs.

   Every full (non-smoke) JSON dump also records the process peak RSS
   (VmHWM) so memory regressions show up across PRs; smoke JSON omits
   it to stay bit-deterministic for the CI double-run diffs.

   --smoke runs a seconds-scale deterministic subset (the protocol
   illustrations plus a tiny lossy-network sweep) and is wired into
   the default test alias as an end-to-end exercise of the bench
   harness. *)

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

let schema = Schema.default

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

let filter_string = "(&(objectclass=inetOrgPerson)(|(sn=doe)(sn=smith))(age>=30))"

let dn_string = "cn=john doe 0456,ou=research,c=us,o=xyz"
let base_dn = Dn.of_string_exn "o=xyz"
let deep_dn = Dn.of_string_exn dn_string

(* A populated index with [n] stored serial-prefix queries, plus one
   query that hits and one that misses. *)
let make_index n =
  let index = C.Containment_index.create schema in
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
  match C.Symbolic.compile schema ~left ~right with
  | Some c -> c
  | None -> failwith "compile failed"

let small_backend =
  let b = Backend.create ~indexed:[ "serialnumber" ] schema in
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
      fun () -> ignore (Filter.matches schema complex_filter fixture_entry : bool) );
    ("filter/normalize", fun () -> ignore (Filter.normalize complex_filter : Filter.t));
    ("dn/parse", fun () -> ignore (Dn.of_string_exn dn_string : Dn.t));
    ("dn/ancestor", fun () -> ignore (Dn.ancestor_of base_dn deep_dn : bool));
    ( "containment/same-template (Prop 3)",
      fun () ->
        ignore (C.Filter_containment.contained schema serial_filter serial_filter : bool)
    );
    ( "containment/cross-template compiled (Prop 2)",
      fun () ->
        ignore
          (C.Symbolic.eval schema compiled_condition ~left:[| "0400456" |]
             ~right:[| "04004" |]
            : bool) );
    ( "containment/general (Prop 1)",
      fun () ->
        ignore
          (C.Filter_containment.contained_general schema serial_filter prefix_filter
            : bool) );
    ( "containment/general conjunctive",
      fun () ->
        ignore
          (C.Filter_containment.contained_general schema dept_filter dept_filter : bool)
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
  let b = Backend.create ~indexed:[ "serialnumber" ] schema in
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

(* --- JSON dump -------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path ~micro ~fanout =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let opt = function Some v -> Printf.sprintf "%.4f" v | None -> "null" in
  out "{\n  \"micro\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
        (json_escape name) (opt ns) (opt r2)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  ],\n  \"fanout\": [\n";
  List.iteri
    (fun i (sessions, routed, naive) ->
      out
        "    {\"sessions\": %d, \"routed_ns_per_update\": %.1f, \
         \"naive_ns_per_update\": %.1f, \"speedup\": %.2f}%s\n"
        sessions routed naive (naive /. routed)
        (if i = List.length fanout - 1 then "" else ","))
    fanout;
  out "  ],\n  \"peak_rss_kb\": %d\n}\n" (Ldap_topology.Sweep.peak_rss_kb ());
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- Cascading topology sweep ----------------------------------------- *)

module T = Ldap_topology

(* Smoke results go beside the committed full-scale ones, never over
   them. *)
let bench_path n ~smoke =
  Printf.sprintf
    (if smoke then "BENCH_PR%d.smoke.json" else "BENCH_PR%d.json")
    n

(* Peak process RSS (VmHWM), appended to every BENCH_PR*.json.  Full
   runs only: RSS is inherently nondeterministic, and the smoke outputs
   must diff clean across the CI double runs. *)
let rss_fragment ~smoke =
  if smoke then ""
  else Printf.sprintf ",\n  \"peak_rss_kb\": %d" (T.Sweep.peak_rss_kb ())

let run_tree_fanout ~smoke ~json () =
  let config =
    if smoke then T.Sweep.smoke_config else T.Sweep.default_config
  in
  let points = T.Sweep.tree_fanout ~config () in
  let rows =
    List.map
      (fun (p : T.Sweep.point) ->
        [
          p.T.Sweep.shape;
          string_of_int p.T.Sweep.consumers;
          string_of_int p.T.Sweep.root_sessions;
          string_of_int p.T.Sweep.build_root_bytes;
          string_of_int p.T.Sweep.update_root_bytes;
          string_of_int p.T.Sweep.update_total_bytes;
          string_of_int p.T.Sweep.convergence_rounds;
        ])
      points
  in
  Eval.Report.print
    (Eval.Report.make ~title:"Tree fan-out: flat star vs 2-tier tree"
       ~notes:
         [
           "root sessions and root-link bytes stay flat in the tree (only the";
           "interior nodes hold root sessions); the star grows both linearly;";
           "the tree pays one extra convergence round for the extra tier";
         ]
       ~columns:
         [
           "shape"; "consumers"; "root sessions"; "build root B";
           "update root B"; "update total B"; "rounds";
         ]
       ~rows ());
  if json then begin
    let path = bench_path 3 ~smoke in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"config\": \"%s\",\n  \"tree_fanout\": %s%s\n}\n"
      (if smoke then "smoke" else "default")
      (T.Sweep.json_of_points points)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Latency/staleness sweep ------------------------------------------ *)

let lat_rows points =
  List.map
    (fun (p : T.Sweep.lat_point) ->
      [
        p.T.Sweep.lp_shape;
        p.T.Sweep.lp_faults;
        string_of_int p.T.Sweep.lp_polls;
        string_of_int p.T.Sweep.lp_resp_p50;
        string_of_int p.T.Sweep.lp_resp_p90;
        string_of_int p.T.Sweep.lp_resp_max;
        string_of_int p.T.Sweep.lp_stale_p50;
        string_of_int p.T.Sweep.lp_stale_p90;
        string_of_int p.T.Sweep.lp_stale_max;
        string_of_int p.T.Sweep.lp_stale_censored;
      ])
    points

let run_latency_staleness ~smoke ~json () =
  let config =
    if smoke then T.Sweep.lat_smoke_config else T.Sweep.lat_default_config
  in
  let points = T.Sweep.latency_staleness ~config () in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Latency/staleness: star vs tree, clean vs lossy (virtual ticks)"
       ~notes:
         [
           "event-driven run: every participant polls on its own staggered loop";
           "over links with uniform latency; staleness is commit-to-leaf-ack time.";
           "expected: tree staleness >= star (extra tier), lossy response >= clean";
         ]
       ~columns:
         [
           "shape"; "faults"; "polls"; "resp p50"; "resp p90"; "resp max";
           "stale p50"; "stale p90"; "stale max"; "censored";
         ]
       ~rows:(lat_rows points) ());
  if json then begin
    let path = bench_path 4 ~smoke in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"config\": \"%s\",\n  \"latency_staleness\": %s%s\n}\n"
      (if smoke then "smoke" else "default")
      (T.Sweep.json_of_lat_points points)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

let run_crash_restart ~smoke ~json () =
  let config =
    if smoke then T.Sweep.cr_smoke_config else T.Sweep.cr_default_config
  in
  let points = T.Sweep.crash_restart ~config () in
  let corruption = T.Sweep.corruption_sweep ~config () in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Crash/restart recovery: durable resume vs cold re-fetch"
       ~notes:
         [
           "a fraction of star leaves crash mid-run, updates land while down,";
           "then they restart; durable modes recover from WAL+snapshot and";
           "resume ReSync from the durable cookie, cold re-fetches everything.";
           "expected: durable resync bytes < cold; torn tails truncate cleanly";
         ]
       ~columns:
         [
           "mode"; "affected"; "resync bytes"; "replayed"; "truncated";
           "recover mean"; "recover max"; "converged";
         ]
       ~rows:
         (List.map
            (fun (p : T.Sweep.cr_point) ->
              [
                p.T.Sweep.cp_mode;
                string_of_int p.T.Sweep.cp_affected;
                string_of_int p.T.Sweep.cp_resync_bytes;
                string_of_int p.T.Sweep.cp_replayed;
                string_of_int p.T.Sweep.cp_truncated;
                string_of_int p.T.Sweep.cp_recover_ticks_mean;
                string_of_int p.T.Sweep.cp_recover_ticks_max;
                string_of_int p.T.Sweep.cp_converged;
              ])
            points)
       ());
  Printf.printf
    "corruption sweep: %d trials, %d recovered, %d truncated, %d discarded, \
     %d merkle-repaired, %d cold-repaired, %d stale, %d panics\n%!"
    corruption.T.Sweep.cs_trials corruption.T.Sweep.cs_recovered
    corruption.T.Sweep.cs_truncated corruption.T.Sweep.cs_discarded
    corruption.T.Sweep.cs_repaired_merkle corruption.T.Sweep.cs_repaired_cold
    corruption.T.Sweep.cs_stale corruption.T.Sweep.cs_panics;
  if corruption.T.Sweep.cs_panics > 0 then
    failwith "crash-restart: corruption sweep panicked";
  if corruption.T.Sweep.cs_stale > 0 then
    failwith
      "crash-restart: corruption sweep left a replica serving stale content";
  (let durable =
     List.find (fun (p : T.Sweep.cr_point) -> p.T.Sweep.cp_mode = "durable") points
   in
   let cold =
     List.find (fun (p : T.Sweep.cr_point) -> p.T.Sweep.cp_mode = "cold") points
   in
   let reparent =
     List.find (fun (p : T.Sweep.cr_point) -> p.T.Sweep.cp_mode = "reparent") points
   in
   if durable.T.Sweep.cp_resync_bytes >= cold.T.Sweep.cp_resync_bytes then
     failwith "crash-restart: durable resume did not undercut cold re-fetch";
   if
     reparent.T.Sweep.cp_recover_ticks_max
     > 2 * max 1 durable.T.Sweep.cp_recover_ticks_max
   then
     failwith
       (Printf.sprintf
          "crash-restart: reparent heal too slow (max %d ticks vs durable %d)"
          reparent.T.Sweep.cp_recover_ticks_max
          durable.T.Sweep.cp_recover_ticks_max));
  if json then begin
    let path = bench_path 5 ~smoke in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"config\": \"%s\",\n  \"crash_restart\": %s,\n  \"corruption\": %s%s\n}\n"
      (if smoke then "smoke" else "default")
      (T.Sweep.json_of_cr_points points)
      (T.Sweep.json_of_corruption corruption)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Anti-entropy drift sweep ----------------------------------------- *)

let run_anti_entropy ~smoke ~json () =
  let config =
    if smoke then T.Sweep.ae_smoke_config else T.Sweep.ae_default_config
  in
  let points = T.Sweep.anti_entropy ~config () in
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
            (fun (p : T.Sweep.ae_point) ->
              [
                Printf.sprintf "%.2f" p.T.Sweep.ap_drift;
                string_of_int p.T.Sweep.ap_updates;
                string_of_int p.T.Sweep.ap_affected;
                string_of_int p.T.Sweep.ap_merkle_bytes;
                string_of_int p.T.Sweep.ap_cold_bytes;
                Printf.sprintf "%.3f"
                  (float_of_int p.T.Sweep.ap_merkle_bytes
                  /. float_of_int (max 1 p.T.Sweep.ap_cold_bytes));
                string_of_int p.T.Sweep.ap_merkle_converged;
                string_of_int p.T.Sweep.ap_cold_converged;
                string_of_int p.T.Sweep.ap_merkle_ticks_max;
                string_of_int p.T.Sweep.ap_cold_ticks_max;
              ])
            points)
       ());
  List.iter
    (fun (p : T.Sweep.ae_point) ->
      if p.T.Sweep.ap_merkle_converged < p.T.Sweep.ap_affected then
        failwith
          (Printf.sprintf
             "anti-entropy: merkle run at drift %.2f left %d replicas diverged"
             p.T.Sweep.ap_drift
             (p.T.Sweep.ap_affected - p.T.Sweep.ap_merkle_converged));
      if p.T.Sweep.ap_cold_converged < p.T.Sweep.ap_affected then
        failwith
          (Printf.sprintf
             "anti-entropy: cold run at drift %.2f left %d replicas diverged"
             p.T.Sweep.ap_drift
             (p.T.Sweep.ap_affected - p.T.Sweep.ap_cold_converged)))
    points;
  (let headline =
     List.find (fun (p : T.Sweep.ae_point) -> p.T.Sweep.ap_drift = 0.1) points
   in
   let ratio =
     float_of_int headline.T.Sweep.ap_merkle_bytes
     /. float_of_int (max 1 headline.T.Sweep.ap_cold_bytes)
   in
   let cap = if smoke then 1.0 else 0.25 in
   if ratio >= cap then
     failwith
       (Printf.sprintf
          "anti-entropy: merkle/cold ratio %.3f at 10%% drift exceeds the \
           %.2f gate"
          ratio cap));
  if json then begin
    let path = bench_path 6 ~smoke in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"config\": \"%s\",\n  \"anti_entropy\": %s%s\n}\n"
      (if smoke then "smoke" else "default")
      (T.Sweep.json_of_ae_points points)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Shard sweep ------------------------------------------------------ *)

module Shard_sweep = Ldap_shard.Sweep

let run_shard ~smoke ~json () =
  let config =
    if smoke then Shard_sweep.smoke_config else Shard_sweep.default_config
  in
  let points = Shard_sweep.run ~config () in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Sharding: routed writes, covered reads, per-shard recovery"
       ~notes:
         [
           "per shard count a router distributes one enterprise directory over";
           "filter-described partitions: a write burst is booked into virtual";
           "per-shard service timelines (throughput = writes/makespan), the";
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
                string_of_int p.Shard_sweep.sp_shards;
                string_of_int p.Shard_sweep.sp_makespan;
                Printf.sprintf "%.3f" p.Shard_sweep.sp_throughput;
                Printf.sprintf "%.2fx" p.Shard_sweep.sp_speedup;
                string_of_int p.Shard_sweep.sp_single_cover_max;
                Printf.sprintf "%.2f" p.Shard_sweep.sp_fanout_avg;
                Printf.sprintf "%.3f" p.Shard_sweep.sp_fanout_ratio;
                Printf.sprintf "%.2f" p.Shard_sweep.sp_plan_hit_ratio;
                string_of_int p.Shard_sweep.sp_warm_bytes;
                string_of_int p.Shard_sweep.sp_cold_bytes;
                string_of_int p.Shard_sweep.sp_wal_replayed;
                (if p.Shard_sweep.sp_recover_ok then "ok" else "FAIL");
              ])
            points)
       ());
  List.iter
    (fun (p : Shard_sweep.point) ->
      if p.Shard_sweep.sp_single_cover_max <> 1 then
        failwith
          (Printf.sprintf
             "shard: a single-block filter covered %d shards at %d shards"
             p.Shard_sweep.sp_single_cover_max p.Shard_sweep.sp_shards);
      if not p.Shard_sweep.sp_recover_ok then
        failwith
          (Printf.sprintf "shard: crash recovery diverged at %d shards"
             p.Shard_sweep.sp_shards);
      if p.Shard_sweep.sp_warm_bytes >= p.Shard_sweep.sp_cold_bytes then
        failwith
          (Printf.sprintf
             "shard: composite-cookie resume (%d B) not cheaper than cold \
              re-fetch (%d B) at %d shards"
             p.Shard_sweep.sp_warm_bytes p.Shard_sweep.sp_cold_bytes
             p.Shard_sweep.sp_shards))
    points;
  (match
     List.find_opt (fun (p : Shard_sweep.point) -> p.Shard_sweep.sp_shards = 4) points
   with
  | Some p when p.Shard_sweep.sp_speedup < 2.0 ->
      failwith
        (Printf.sprintf
           "shard: 4-shard write speedup %.2fx below the 2x gate"
           p.Shard_sweep.sp_speedup)
  | _ -> ());
  if json then begin
    let path = bench_path 8 ~smoke in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"config\": \"%s\",\n  \"shard\": %s%s\n}\n"
      (if smoke then "smoke" else "default")
      (Shard_sweep.json_of_points points)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Paper-scale content-plane sweep ---------------------------------- *)

let run_scale ~smoke ~json () =
  let config =
    if smoke then T.Sweep.scale_smoke_config else T.Sweep.scale_default_config
  in
  let baseline, main = T.Sweep.scale ~config () in
  let row label (r : T.Sweep.scale_run) =
    [
      label;
      string_of_int r.T.Sweep.sr_entries;
      string_of_int r.T.Sweep.sr_leaves;
      string_of_int r.T.Sweep.sr_polls;
      Printf.sprintf "%.2f" (T.Sweep.scanned_per_poll r);
      string_of_int r.T.Sweep.sr_rescans;
      string_of_int r.T.Sweep.sr_resp_p99;
      string_of_int r.T.Sweep.sr_stale_p99;
      string_of_int r.T.Sweep.sr_stale_censored;
      string_of_int r.T.Sweep.sr_pending_max;
      string_of_int r.T.Sweep.sr_cursor_depth_max;
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
            main.T.Sweep.sr_memory)
       ());
  (* Gates. *)
  List.iter
    (fun (label, (r : T.Sweep.scale_run)) ->
      if r.T.Sweep.sr_rescans > 0 then
        failwith
          (Printf.sprintf "scale: %s run fell back to %d full rescans" label
             r.T.Sweep.sr_rescans);
      if r.T.Sweep.sr_stale_samples = 0 then
        failwith (Printf.sprintf "scale: %s run sampled no staleness" label))
    [ ("baseline", baseline); ("full", main) ];
  let spp_base = T.Sweep.scanned_per_poll baseline in
  let spp_main = T.Sweep.scanned_per_poll main in
  if spp_main > Float.max 4.0 (2.0 *. spp_base) then
    failwith
      (Printf.sprintf
         "scale: %.2f spine entries scanned per poll at full size vs %.2f at \
          baseline — snapshot-diff serving is not O(diff)"
         spp_main spp_base);
  let leaf_ratio, live_ratio =
    match main.T.Sweep.sr_memory with
    | [] | [ _ ] -> (1.0, 1.0)
    | (l0, w0, _) :: _ ->
        let ln, wn, _ =
          List.nth main.T.Sweep.sr_memory
            (List.length main.T.Sweep.sr_memory - 1)
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
    (not smoke)
    && main.T.Sweep.sr_serve_p99_us
       > 2.0 *. Float.max 50.0 baseline.T.Sweep.sr_serve_p99_us
  then
    failwith
      (Printf.sprintf
         "scale: p99 incremental serve time %.1fus at full size vs %.1fus \
          at baseline exceeds the 2x gate"
         main.T.Sweep.sr_serve_p99_us baseline.T.Sweep.sr_serve_p99_us);
  if main.T.Sweep.sr_resp_p99 > 2 * max 1 baseline.T.Sweep.sr_resp_p99 then
    failwith
      (Printf.sprintf
         "scale: p99 poll response %d ticks at full size vs %d at baseline \
          exceeds the 2x gate"
         main.T.Sweep.sr_resp_p99 baseline.T.Sweep.sr_resp_p99);
  Printf.printf
    "scale gates: rescans 0/0, scan-per-poll %.2f vs %.2f, live-words \
     %.2fx over %.1fx leaves (cap %.2fx)\n%!"
    spp_base spp_main live_ratio leaf_ratio allowed;
  if json then begin
    let path = bench_path 9 ~smoke in
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    out "{\n  \"config\": \"%s\",\n" (if smoke then "smoke" else "default");
    out "  \"baseline\": %s,\n"
      (T.Sweep.json_of_scale_run ~full:(not smoke) baseline);
    out "  \"scale\": %s,\n" (T.Sweep.json_of_scale_run ~full:(not smoke) main);
    out
      "  \"gates\": {\"rescans_zero\": true, \"scanned_per_poll_2x\": true, \
       \"memory_sublinear\": true, \"response_p99_2x\": true, \
       \"staleness_sampled\": true%s}"
      (if smoke then ""
       else
         Printf.sprintf
           ", \"serve_p99_2x\": true, \"scanned_per_poll_ratio\": %.3f, \
            \"live_words_ratio\": %.3f, \"leaf_ratio\": %.2f"
           (spp_main /. Float.max 0.001 spp_base)
           live_ratio leaf_ratio);
    out "%s\n}\n" (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Adaptive replication under drift --------------------------------- *)

module Drift = Ldap_adaptive.Drift

let report_cell (r : Ldap_adaptive.Transition.report) =
  Printf.sprintf "%dk %dr %ds %dc -%d" r.kept r.rescoped r.seeded r.cold
    r.removed

let run_adapt ~smoke ~json () =
  let config = if smoke then Drift.smoke_config else Drift.default_config in
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
       ~rows:(run_rows "delta" sweep.Drift.sw_delta
              @ run_rows "cold" sweep.Drift.sw_cold)
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
           bp_row "within-bound" sweep.Drift.sw_bp_stall;
           bp_row "overflow" sweep.Drift.sw_bp_overflow;
         ]
       ());
  (* Gates. *)
  let g = sweep.Drift.sw_gates in
  let geo r = (Drift.find_phase r "geo-flip").Drift.pp_transition_bytes in
  if not g.Drift.g_geo_delta_le_half_cold then
    failwith
      (Printf.sprintf
         "adapt: geo-flip delta transition shipped %d B vs %d B cold — over \
          the 50%% gate"
         (geo sweep.Drift.sw_delta)
         (geo sweep.Drift.sw_cold));
  if not g.Drift.g_hit_ratio_recovers then
    failwith "adapt: a drift phase's tail hit ratio did not recover";
  if not g.Drift.g_queue_bounded then
    failwith "adapt: stalled-leaf persist queue was not bounded at the master";
  if not g.Drift.g_no_failed_installs then
    failwith "adapt: a transition plan left failed installs";
  let lh_config =
    if smoke then Drift.lh_smoke_config else Drift.lh_default_config
  in
  let lh = Drift.run_long_haul lh_config in
  if not (Drift.lh_gates_pass lh_config lh) then
    failwith ("adapt: long-haul gates failed: " ^ Drift.json_of_lh lh_config lh);
  Printf.printf
    "adapt gates: geo-flip delta %d B <= 50%% of cold %d B, tails recovered, \
     queue peak %d <= %d+1, long-haul converged %d/%d\n%!"
    (geo sweep.Drift.sw_delta)
    (geo sweep.Drift.sw_cold)
    sweep.Drift.sw_bp_overflow.Drift.bp_queue_peak
    sweep.Drift.sw_bp_overflow.Drift.bp_limit lh.Drift.lh_converged
    lh.Drift.lh_participants;
  if json then begin
    let path = bench_path 10 ~smoke in
    let oc = open_out path in
    let body = Drift.json_of_sweep sweep in
    (* Splice the long-haul point and (full runs) peak RSS into the
       sweep object: drop its closing "\n}". *)
    let body = String.sub body 0 (String.length body - 2) in
    Printf.fprintf oc "%s,\n  \"long_haul\": %s%s\n}\n" body
      (Drift.json_of_lh lh_config lh)
      (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

let run_scale_long_haul ~smoke ~json () =
  ignore json;
  let config =
    if smoke then Drift.lh_smoke_config else Drift.lh_default_config
  in
  let p = Drift.run_long_haul config in
  Eval.Report.print
    (Eval.Report.make
       ~title:"Long-haul write pressure: history HWM + persist queue bounds"
       ~notes:
         [
           "a long committed-update stream with one leaf that never polls";
           "(history HWM must escalate it) and a persist leaf that stops";
           "draining (queue must overflow); both buffers stay within one";
           "action of their bounds and every participant reconverges";
         ]
       ~columns:
         [
           "updates"; "hist limit"; "q limit"; "hist ovf"; "push ovf";
           "pend max"; "push peak"; "converged";
         ]
       ~rows:
         [
           [
             string_of_int p.Drift.lh_committed;
             string_of_int config.Drift.lh_history_limit;
             string_of_int config.Drift.lh_queue_limit;
             string_of_int p.Drift.lh_history_overflows;
             string_of_int p.Drift.lh_push_overflows;
             string_of_int p.Drift.lh_pending_max_seen;
             string_of_int p.Drift.lh_push_peak;
             Printf.sprintf "%d/%d" p.Drift.lh_converged
               p.Drift.lh_participants;
           ];
         ]
       ());
  if not (Drift.lh_gates_pass config p) then
    failwith
      ("scale --long-haul: gates failed: " ^ Drift.json_of_lh config p);
  Printf.printf
    "long-haul gates: %d history + %d push overflows, pending max %d <= \
     %d+1, push peak %d <= %d+1, converged %d/%d\n%!"
    p.Drift.lh_history_overflows p.Drift.lh_push_overflows
    p.Drift.lh_pending_max_seen config.Drift.lh_history_limit
    p.Drift.lh_push_peak config.Drift.lh_queue_limit p.Drift.lh_converged
    p.Drift.lh_participants

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

let run_micro7 ~smoke ~json () =
  (* Equivalence first: the compiled paths must agree with the
     interpreted oracles on every fixture.  The counts are
     deterministic, so the smoke JSON is diffable across runs. *)
  let filter_cases = ref 0 and filter_agree = ref 0 in
  List.iter
    (fun f ->
      let m = Filter.matcher schema f in
      List.iter
        (fun e ->
          incr filter_cases;
          if Bool.equal (Filter.matches schema f e) (m e) then incr filter_agree)
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
  let staged_condition = C.Symbolic.Compiled.compile schema compiled_condition in
  let sym_cases = ref 0 and sym_agree = ref 0 in
  List.iter
    (fun (l, r) ->
      incr sym_cases;
      if
        Bool.equal
          (C.Symbolic.eval schema compiled_condition ~left:[| l |] ~right:[| r |])
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
  let filter_matcher = Filter.matcher schema complex_filter in
  let pairs =
    [
      ( "filter/eval",
        (fun () ->
          List.iter
            (fun e -> ignore (Filter.matches schema complex_filter e : bool))
            eval_entries),
        fun () -> List.iter (fun e -> ignore (filter_matcher e : bool)) eval_entries
      );
      ( "containment/eval (Prop 2)",
        (fun () ->
          ignore
            (C.Symbolic.eval schema compiled_condition ~left:[| "0400456" |]
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
  let fanout = if smoke then [] else run_fanout () in
  let lat =
    if smoke then []
    else T.Sweep.latency_staleness ~config:T.Sweep.lat_smoke_config ()
  in
  if json then begin
    let path = bench_path 7 ~smoke in
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    out "{\n  \"config\": \"%s\",\n" (if smoke then "smoke" else "default");
    out
      "  \"equivalence\": {\"filter_cases\": %d, \"filter_agree\": %d, \
       \"codec_cases\": %d, \"codec_identical\": %d, \"symbolic_cases\": %d, \
       \"symbolic_agree\": %d}"
      !filter_cases !filter_agree !codec_cases !codec_identical !sym_cases
      !sym_agree;
    if not smoke then begin
      out ",\n  \"micro\": [\n";
      List.iteri
        (fun i (name, fi, fc, s) ->
          out
            "    {\"name\": \"%s\", \"interpreted_ns\": %.1f, \"compiled_ns\": \
             %.1f, \"speedup\": %.2f, \"interpreted_r2\": %.4f, \
             \"compiled_r2\": %.4f}%s\n"
            (json_escape name) fi.ns fc.ns s fi.r2 fc.r2
            (if i = List.length timed - 1 then "" else ","))
        timed;
      out "  ],\n  \"fanout\": [\n";
      List.iteri
        (fun i (sessions, routed, naive) ->
          out
            "    {\"sessions\": %d, \"routed_ns_per_update\": %.1f, \
             \"naive_ns_per_update\": %.1f, \"speedup\": %.2f}%s\n"
            sessions routed naive (naive /. routed)
            (if i = List.length fanout - 1 then "" else ","))
        fanout;
      out "  ],\n  \"latency_staleness\": %s" (T.Sweep.json_of_lat_points lat)
    end;
    out "%s\n}\n" (rss_fragment ~smoke);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end

(* --- Entry point ------------------------------------------------------ *)

let smoke () =
  Eval.Report.print (Eval.Figures.figure2 ());
  Eval.Report.print (Eval.Figures.figure3 ());
  Eval.Report.print
    (Eval.Figures.lossy_sync ~rates:[ 0.0; 0.2 ] ~updates:200 ~employees:800
       ~filters:4 ());
  (* The paper-scale sweep, scaled down: every runtest exercises the
     content plane end to end, gates included. *)
  run_scale ~smoke:true ~json:false ()

open Cmdliner

let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let smoke_flag = flag "smoke" "Seconds-scale deterministic subset."
let json_flag = flag "json" "Write the results as BENCH_PRn.json (BENCH_PRn.smoke.json with --smoke)."
let quick_flag = flag "quick" "Reduced scale; for a sweep, the same as --smoke."

let sweep name doc run =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun quick smoke json -> run ~smoke:(quick || smoke) ~json ())
      $ quick_flag $ smoke_flag $ json_flag)

let default quick micro_only figures_only smoke_only json =
  if smoke_only then smoke ()
  else if json then begin
    let micro = run_micro () in
    let fanout = run_fanout () in
    write_json ~path:"BENCH_PR2.json" ~micro ~fanout
  end
  else begin
    if not micro_only then Eval.Figures.all ~quick ();
    if not figures_only then begin
      ignore (run_micro ());
      ignore (run_fanout ())
    end
  end

let () =
  let scale =
    Cmd.v
      (Cmd.info "scale" ~doc:"Paper-scale content-plane sweep.")
      Term.(
        const (fun quick smoke json long_haul ->
            (if long_haul then run_scale_long_haul else run_scale)
              ~smoke:(quick || smoke) ~json ())
        $ quick_flag $ smoke_flag $ json_flag
        $ flag "long-haul" "Run the long write-pressure scenario instead.")
  in
  let cmd =
    Cmd.group
      (Cmd.info "main" ~doc:"Paper figures, micro-benchmarks and sweeps.")
      ~default:
        Term.(
          const default $ quick_flag
          $ flag "micro-only" "Skip the paper figures."
          $ flag "figures-only" "Skip the micro-benchmarks."
          $ flag "smoke" "Protocol illustrations plus a tiny lossy-network and scale sweep."
          $ flag "json" "Micro-benchmarks and fan-out sweep into BENCH_PR2.json.")
      [
        sweep "micro" "Compiled-vs-interpreted hot paths." run_micro7;
        sweep "tree-fanout" "Flat star vs 2-tier tree fan-out sweep." run_tree_fanout;
        sweep "latency-staleness" "Discrete-event response-time and staleness sweep."
          run_latency_staleness;
        sweep "crash-restart" "Durable-store recovery and WAL-corruption sweep."
          run_crash_restart;
        sweep "anti-entropy" "Merkle vs cold re-fetch across drift." run_anti_entropy;
        sweep "shard" "Partitioned-directory sweep." run_shard;
        scale;
        sweep "adapt" "Adaptive replication drift sweep." run_adapt;
      ]
  in
  exit (Cmd.eval cmd)
