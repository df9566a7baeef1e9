(* The paper-scale content-plane sweep.  End-to-end run at the paper's
   directory size: the full enterprise behind the root master, a tier
   of interior nodes splitting the department filters evenly, and a
   leaf fleet subscribing them round-robin.  Leaves attach in batches
   with the heap compacted and sampled after each batch, so memory
   growth with consumer count is measured inside one topology; the
   update stream is diurnally modulated (sinusoidal gap factor in
   [0.25, 1.75] over a two-virtual-day horizon) and the Table 1 query
   mix with Zipf department drift executes during the run — department
   lookups against leaf replicas, serial/mail/location against the
   indexed root.  The same topology runs first at a baseline directory
   size, then at full size.

   Gates: no node falls back to a full-content rescan, every run
   samples staleness, spine entries scanned per poll stay within 2x of
   the baseline (snapshot-diff serving is O(diff), not O(directory)),
   live heap words grow sublinearly in leaf count, the p99 poll
   response stays within 2x of the baseline, and (full runs) so does
   the wall-clock p99 incremental serve time — initial-content and
   degraded transfers are O(selection) by design and are reported
   ungated as serve_all_p99_us. *)
open Ldap
open Common
module Resync = Ldap_resync
module Scenario = Ldap_eval.Scenario

type config = {
  base : D.Enterprise.config;  (* shape; employees and seed are overridden per run *)
  employees : int;  (* full-size run *)
  baseline_employees : int;  (* same topology, smaller directory *)
  nodes : int;  (* interior nodes splitting the dept filters *)
  leaf_points : int list;  (* cumulative leaf counts to sample memory at *)
  poll_every : int;
  update_every : int;  (* nominal gap; diurnally modulated *)
  updates : int;
  queries : int;  (* Table 1 workload length *)
  horizon : int;
  history_limit : int;  (* root master session-history high-water mark *)
  full : bool;
      (* wall-clock, RSS and memory figures, left out of smoke runs so
         their JSON stays bit-deterministic for its pin *)
}

(* 500k employees (60k baseline), 10 nodes over 400 department
   filters, leaves sampled at 250/500/1000. *)
let default =
  {
    base = D.Enterprise.default_config;
    employees = 500_000;
    baseline_employees = 60_000;
    nodes = 10;
    leaf_points = [ 250; 500; 1000 ];
    poll_every = 50;
    update_every = 10;
    updates = 200;
    queries = 5000;
    horizon = 3000;
    history_limit = 512;
    full = true;
  }

let smoke =
  {
    base =
      {
        D.Enterprise.default_config with
        countries = 4;
        divisions = 4;
        departments_per_division = 12;
        locations = 8;
        target_countries = 2;
      };
    employees = 1_500;
    baseline_employees = 800;
    nodes = 4;
    leaf_points = [ 12; 24; 48 ];
    poll_every = 40;
    update_every = 20;
    updates = 24;
    queries = 200;
    horizon = 600;
    history_limit = 64;
    full = false;
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
  | None -> invalid_arg ("Scale.time_serves: no endpoint " ^ host)
  | Some ep ->
      Resync.Transport.add_endpoint transport ~name:host
        {
          ep with
          ep_handle =
            (fun ~push request query ->
              let t0 = Sys.time () in
              let reply = ep.ep_handle ~push request query in
              let dt = Sys.time () -. t0 in
              Samples.push all dt;
              (match reply with
              | Ok r when r.Resync.Protocol.kind = Resync.Protocol.Incremental -> Samples.push incr dt
              | Ok _ | Error _ -> ());
              reply);
        }

(* Seeds the directory; offsets from it seed the update stream (+1),
   the engine (+2) and the query workload (+4). *)
let scale_seed = 11

(* One run's JSON row and the figures the gates read. *)
type run = {
  row : Json.t;
  rescans : int;  (* full-content rescan fallbacks (0 = all O(diff)) *)
  stale_samples : int;
  scanned_per_poll : float;  (* spine entries walked per incremental poll *)
  memory : (int * int * int) list;
      (* per leaf point: leaves, live words after Gc.compact, VmRSS kB
         (0 unless [full]) *)
  serve_p99_us : float;  (* node serve wall time per incremental poll *)
  resp_p99 : int;  (* leaf poll response, virtual ticks *)
}

let memory_json (leaves, live, rss) =
  Json.(Obj [ ("leaves", Int leaves); ("live_words", Int live); ("vm_rss_kb", Int rss) ])

let run_at cfg ~employees =
  let module Sim = Ldap_sim.Engine in
  let t0 = Sys.time () in
  let ent = D.Enterprise.build { cfg.base with employees; seed = scale_seed } in
  let build_seconds = Sys.time () -. t0 in
  let backend = D.Enterprise.backend ent in
  let all_depts = D.Enterprise.dept_numbers ent in
  let fleet = Scenario.fleet ~nodes:cfg.nodes ent in
  let filters = Array.length fleet.queries in
  let t = Topology.create backend in
  (* Bounded per-session history at the root: past the high-water mark
     the master escalates stragglers to a snapshot-diff instead of
     buffering for them. *)
  Resync.Master.set_history_limit (Topology.master t) (Some cfg.history_limit);
  Array.iteri
    (fun i covers ->
      match Topology.add_node t ~name:(Printf.sprintf "node%d" i) ~parent:(Topology.root t) ~covers with
      | Ok _ -> ()
      | Error e -> failwith ("scale: add_node: " ^ e))
    fleet.covers;
  let serves = Samples.create () and incremental_serves = Samples.create () in
  List.iter
    (fun n ->
      time_serves (Topology.transport t) ~host:(Node.host n) ~all:serves ~incr:incremental_serves)
    (Topology.nodes t);
  (* Leaves join in batches; after each batch the heap is compacted and
     sampled, so the growth of live words with consumer count is
     measured inside one topology (replicas share interned entries —
     the curve must stay well under linear). *)
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
             ~parent:(Printf.sprintf "node%d" node) fleet.queries.(fidx)
         with
        | Ok leaf -> leaves_by_dept.(fidx) <- leaf :: leaves_by_dept.(fidx)
        | Error e -> failwith ("scale: add_leaf: " ^ e));
        incr added
      done;
      Gc.compact ();
      let live = (Gc.stat ()).Gc.live_words in
      memory := (target, live, if cfg.full then Ldap_topology.Sweep.current_rss_kb () else 0) :: !memory)
    (List.sort_uniq compare cfg.leaf_points);
  let engine = clock t ~seed:(scale_seed + 2) ~lo:1 ~hi:4 in
  (* Diurnal load: the gap between updates shrinks and stretches with a
     sinusoidal factor in [0.25, 1.75] over a two-day horizon, so polls
     see both quiet and busy spine segments. *)
  let day = max 2 (cfg.horizon / 2) in
  let diurnal now =
    let phase = 2.0 *. Float.pi *. float_of_int (now mod day) /. float_of_int day in
    1.0 +. (0.75 *. sin phase)
  in
  let modulated gap now = max 1 (int_of_float (Float.round (float_of_int gap /. diurnal now))) in
  let stream =
    D.Update_stream.create ent { D.Update_stream.default_config with seed = scale_seed + 1 }
  in
  let update_times = ref [] in
  let updates_done = ref 0 in
  let rec update_tick remaining =
    if remaining > 0 then
      Sim.after engine ~delay:(modulated cfg.update_every (Sim.now engine)) (fun () ->
          D.Update_stream.steps stream 1;
          incr updates_done;
          update_times := (Csn.to_int (Backend.csn backend), Sim.now engine) :: !update_times;
          update_tick (remaining - 1))
  in
  update_tick cfg.updates;
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
        length = cfg.queries;
        dept_drift_every = max 1 (cfg.queries / 8);
      }
  in
  let mix = List.map (fun (k, f) -> (D.Workload.kind_name k, f)) (D.Workload.mix_of items) in
  let dept_index = Hashtbl.create (2 * filters) in
  Array.iteri (fun j d -> Hashtbl.replace dept_index d j) all_depts;
  let dept_of_item (it : D.Workload.item) =
    Filter.fold_pred
      (fun acc p ->
        match (acc, p) with
        | None, Filter.Equality (a, v) when String.lowercase_ascii a = "departmentnumber" ->
            Hashtbl.find_opt dept_index v
        | _ -> acc)
      None (it.query.filter :> Filter.t)
  in
  let rr = Array.make filters 0 in
  let query_hits = ref 0 in
  let query_wall = ref 0.0 in
  let queries_done = ref 0 in
  let run_query (it : D.Workload.item) =
    let q0 = Sys.time () in
    let n =
      match dept_of_item it with
      | Some fidx when leaves_by_dept.(fidx) <> [] -> (
          let ls = leaves_by_dept.(fidx) in
          let k = rr.(fidx) in
          rr.(fidx) <- k + 1;
          let leaf = List.nth ls (k mod List.length ls) in
          let stored = fleet.queries.(fidx) in
          match Ldap_replication.Filter_replica.consumer_for (Leaf.replica leaf) stored with
          | Some c ->
              List.length (Ldap_replication.Replica.eval_over_store it.query (Resync.Consumer.content c))
          | None -> 0)
      | _ -> (
          match Backend.search backend it.query with
          | Ok r -> List.length r.Backend.entries
          | Error _ -> 0)
    in
    query_wall := !query_wall +. (Sys.time () -. q0);
    query_hits := !query_hits + n;
    incr queries_done
  in
  let q_gap = max 1 (cfg.horizon / max 1 cfg.queries) in
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
  Topology.drive_events ~on_leaf_poll t engine ~poll_every:cfg.poll_every ~until:cfg.horizon;
  Sim.run engine;
  let stale, censored = staleness acks ~updates:(List.rev !update_times) (Topology.leaves t) in
  let resp_p50, resp_p90, resp_p99, _ = summarize !resp_samples in
  let stale_p50, _, stale_p99, _ = summarize stale in
  let polls, scanned, rescans =
    List.fold_left
      (fun (a, b, c) n ->
        let p, s, r = Node.cursor_stats n in
        (a + p, b + s, c + r))
      (0, 0, 0) (Topology.nodes t)
  in
  let scanned_per_poll = if polls = 0 then 0.0 else float_of_int scanned /. float_of_int polls in
  (* Gate serve cost on the incremental population only: initial and
     degraded transfers are O(selection) by design and would otherwise
     drown the O(diff) claim at full directory size. *)
  let serve_sorted = Samples.sorted incremental_serves in
  let serve_p99_us = 1e6 *. percentile ~empty:0.0 serve_sorted 0.99 in
  let pending_total, pending_max = Resync.Master.pending_stats (Topology.master t) in
  let store = Backend.content_store backend in
  let memory = List.rev !memory in
  let wall_clock =
    if not cfg.full then []
    else
      let searches =
        if !query_wall > 0.0 then float_of_int !queries_done /. !query_wall else 0.0
      in
      Json.
        [
          ("memory", list memory_json memory);
          ("store_bytes", Int (Content_store.approx_bytes store));
          ("build_seconds", float 2 build_seconds); ("query_seconds", float 3 !query_wall);
          ("search_per_second", float 0 searches);
          ("serve_p50_us", float 1 (1e6 *. percentile ~empty:0.0 serve_sorted 0.5));
          ("serve_p99_us", float 1 serve_p99_us);
          ( "serve_all_p99_us",
            float 1 (1e6 *. percentile ~empty:0.0 (Samples.sorted serves) 0.99) );
        ]
  in
  let row =
    Json.(
      Obj
        ([
           ("employees", Int employees); ("entries", Int (Content_store.size store));
           ("filters", Int filters); ("nodes", Int (Array.length fleet.covers));
           ("leaves", Int !added);
         ]
        @ wall_clock
        @ [
            ("polls", Int polls); ("scanned", Int scanned); ("rescans", Int rescans);
            ("scanned_per_poll", float 2 scanned_per_poll);
            ("response_p50", Int resp_p50); ("response_p90", Int resp_p90);
            ("response_p99", Int resp_p99); ("stale_samples", Int (List.length stale));
            ("stale_censored", Int censored); ("stale_p50", Int stale_p50);
            ("stale_p99", Int stale_p99); ("updates", Int !updates_done);
            ("queries", Int !queries_done); ("query_hits", Int !query_hits);
            ("mix", Obj (List.map (fun (k, f) -> (k, float 3 f)) mix));
            ("session_pending_total", Int pending_total);
            ("session_pending_max", Int pending_max);
            ("history_size", Int (Resync.Master.history_size (Topology.master t)));
            ( "seen_residency",
              Int (List.fold_left (fun acc n -> acc + Node.seen_residency n) 0 (Topology.nodes t)) );
            ( "cursor_depth_max",
              Int
                (List.fold_left
                   (fun acc n -> List.fold_left max acc (Node.cursor_depths n))
                   0 (Topology.nodes t)) );
          ]))
  in
  { row; rescans; stale_samples = List.length stale; scanned_per_poll; memory; serve_p99_us; resp_p99 }

let run config =
  let full = config.full in
  (* Baseline first: the peak RSS of the process then belongs to the
     full-size run, which is what BENCH_PR9 reports. *)
  let baseline = run_at config ~employees:config.baseline_employees in
  Gc.compact ();
  let main = run_at config ~employees:config.employees in
  print_table ~title:"Paper-scale content plane: baseline vs full directory"
    ~notes:
      [
        "same topology (node tier + leaf fleet over the department filters),";
        "two directory sizes; incremental polls walk only the change spine, so";
        "scan/poll must track the update rate, not the directory size, and no";
        "poll may fall back to a full-content rescan";
      ]
    [
      "run"; "entries"; "leaves"; "polls"; "scanned_per_poll"; "rescans"; "response_p99";
      "stale_p99"; "stale_censored"; "session_pending_max"; "cursor_depth_max";
    ]
    [ labelled "run" "baseline" baseline.row; labelled "run" "full" main.row ];
  if full then
    print_table ~title:"Full-directory heap vs leaf count"
      ~notes:
        [
          "live words after Gc.compact as leaves join one topology; replicas";
          "share interned entries, so growth must stay well under linear";
        ]
      [ "leaves"; "live_words"; "vm_rss_kb" ]
      (List.map memory_json main.memory);
  List.iter
    (fun (label, r) ->
      if r.rescans > 0 then
        failwith (Printf.sprintf "scale: %s run fell back to %d full rescans" label r.rescans);
      if r.stale_samples = 0 then failwith (Printf.sprintf "scale: %s run sampled no staleness" label))
    [ ("baseline", baseline); ("full", main) ];
  let spp_base = baseline.scanned_per_poll and spp_main = main.scanned_per_poll in
  if spp_main > Float.max 4.0 (2.0 *. spp_base) then
    failwith
      (Printf.sprintf
         "scale: %.2f spine entries scanned per poll at full size vs %.2f at baseline — \
          snapshot-diff serving is not O(diff)"
         spp_main spp_base);
  let leaf_ratio, live_ratio =
    match main.memory with
    | [] | [ _ ] -> (1.0, 1.0)
    | (l0, w0, _) :: _ ->
        let ln, wn, _ = List.nth main.memory (List.length main.memory - 1) in
        (float_of_int ln /. float_of_int (max 1 l0), float_of_int wn /. float_of_int (max 1 w0))
  in
  (* Linear growth from the first sample would multiply live words by
     the leaf ratio; shared content must keep it under half that
     slope. *)
  let allowed = 1.0 +. (0.5 *. (leaf_ratio -. 1.0)) in
  if live_ratio > allowed then
    failwith
      (Printf.sprintf
         "scale: live words grew %.2fx over a %.1fx leaf increase (cap %.2fx) — replica memory \
          is not sublinear in consumer count"
         live_ratio leaf_ratio allowed);
  if full && main.serve_p99_us > 2.0 *. Float.max 50.0 baseline.serve_p99_us then
    failwith
      (Printf.sprintf
         "scale: p99 incremental serve time %.1fus at full size vs %.1fus at baseline exceeds \
          the 2x gate"
         main.serve_p99_us baseline.serve_p99_us);
  if main.resp_p99 > 2 * max 1 baseline.resp_p99 then
    failwith
      (Printf.sprintf
         "scale: p99 poll response %d ticks at full size vs %d at baseline exceeds the 2x gate"
         main.resp_p99 baseline.resp_p99);
  Printf.printf
    "scale gates: rescans 0/0, scan-per-poll %.2f vs %.2f, live-words %.2fx over %.1fx leaves \
     (cap %.2fx)\n%!"
    spp_base spp_main live_ratio leaf_ratio allowed;
  let passed names = List.map (fun n -> (n, Json.Bool true)) names in
  Json.
    [
      ("baseline", baseline.row);
      ("scale", main.row);
      ( "gates",
        Obj
          (passed
             [
               "rescans_zero"; "scanned_per_poll_2x"; "memory_sublinear"; "response_p99_2x";
               "staleness_sampled";
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
