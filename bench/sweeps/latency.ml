(* The event-driven latency/staleness sweep: star and tree topologies,
   each clean and lossy, over identical seeds.  Per variant the
   topology is built synchronously (no virtual time), then a
   discrete-event engine is attached, updates are committed on a
   periodic schedule and every participant polls on its own staggered
   loop (the lossy variants drop 20% of exchanges, half requests and
   half replies); each completed leaf poll samples its response time,
   and staleness is the virtual time from an update's commit until a
   leaf first acknowledged a CSN at or past it.  Expected ordering:
   tree staleness >= star (one extra tier of polling), lossy response
   time >= clean (retry backoff burns virtual time). *)
open Ldap
open Common

type config = {
  consumers : int;  (* leaves per topology *)
  filters : int;  (* distinct leaf filters (and interior covers) *)
  arity : int;  (* interior nodes of the tree variant *)
  employees : int;
  poll_every : int;  (* virtual ticks between a participant's polls *)
  updates : int;  (* committed during the run, one every [update_every] ticks *)
  horizon : int;  (* virtual time when poll loops stop rescheduling *)
}

let default =
  { consumers = 48; filters = 8; arity = 4; employees = 2000; poll_every = 50; updates = 40; horizon = 1600 }

let smoke =
  { consumers = 12; filters = 4; arity = 2; employees = 400; poll_every = 40; updates = 12; horizon = 700 }

(* Total loss probability of the lossy variants, split evenly between
   dropped requests and dropped replies. *)
let drop_rate = 0.2

(* One measured topology/fault variant; response times and staleness
   in virtual ticks. *)
type point = {
  shape : string;  (* "star" or "tree<arity>" *)
  faults : string;  (* "clean" or "lossy" *)
  polls : int;  (* completed leaf polls (response-time samples) *)
  resp_p50 : int;
  resp_p90 : int;
  resp_p99 : int;
  resp_max : int;
  stale_samples : int;  (* matched (update, leaf) pairs *)
  stale_censored : int;  (* (update, leaf) pairs never covered within the horizon *)
  stale_mean : int;
  stale_p50 : int;
  stale_p90 : int;
  stale_p99 : int;
  stale_max : int;
}

let variant cfg shape ~lossy =
  let module Sim = Ldap_sim.Engine in
  let ent = enterprise ~employees:cfg.employees in
  let backend = D.Enterprise.backend ent in
  let fleet = Ldap_eval.Scenario.fleet ~filters:cfg.filters ent in
  let covers = fleet.covers.(0) in
  let leaf_queries = Ldap_eval.Scenario.leaf_queries fleet cfg.consumers in
  (* Faults stay muted during the synchronous build phase so both
     variants start from an identical, fully fetched topology; the roll
     consumes no PRNG draws while muted, keeping runs reproducible. *)
  let faults_active = ref false in
  let fault_prng = D.Prng.create (seed + 3) in
  let faults =
    if not lossy then None
    else
      Some
        (Network.Faults.create ~drop_request:(drop_rate /. 2.0) ~drop_reply:(drop_rate /. 2.0)
           ~roll:(fun () -> if !faults_active then D.Prng.float fault_prng 1.0 else 1.0)
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
        D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 }
      in
      let update_times = ref [] in
      let rec update_tick remaining =
        if remaining > 0 then
          Sim.after engine ~delay:update_every (fun () ->
              D.Update_stream.steps stream 1;
              update_times := (Csn.to_int (Backend.csn backend), Sim.now engine) :: !update_times;
              update_tick (remaining - 1))
      in
      update_tick cfg.updates;
      (* Poll loops: per-leaf response times, and an ack record whenever
         a completed poll advances the leaf's acknowledged CSN. *)
      let resp_samples = ref [] in
      let acks = Hashtbl.create (max 4 cfg.consumers) in
      let on_leaf_poll leaf ~start ~finish =
        resp_samples := (finish - start) :: !resp_samples;
        record_ack acks leaf ~finish
      in
      Topology.drive_events ~on_leaf_poll t engine ~poll_every:cfg.poll_every ~until:cfg.horizon;
      Sim.run engine;
      let stale, censored = staleness acks ~updates:(List.rev !update_times) (Topology.leaves t) in
      let resp_p50, resp_p90, resp_p99, resp_max = summarize !resp_samples in
      let stale_p50, stale_p90, stale_p99, stale_max = summarize stale in
      {
        shape = shape_name shape;
        faults = (if lossy then "lossy" else "clean");
        polls = List.length !resp_samples;
        resp_p50;
        resp_p90;
        resp_p99;
        resp_max;
        stale_samples = List.length stale;
        stale_censored = censored;
        stale_mean = mean stale;
        stale_p50;
        stale_p90;
        stale_p99;
        stale_max;
      }

let points config =
  List.concat_map
    (fun shape -> [ variant config shape ~lossy:false; variant config shape ~lossy:true ])
    [ Topology.Star; Topology.Tree { arity = config.arity } ]

let json p =
  Json.(
    Obj
      [
        ("shape", String p.shape); ("faults", String p.faults); ("polls", Int p.polls);
        ("response_p50", Int p.resp_p50); ("response_p90", Int p.resp_p90);
        ("response_p99", Int p.resp_p99); ("response_max", Int p.resp_max);
        ("stale_samples", Int p.stale_samples); ("stale_censored", Int p.stale_censored);
        ("stale_mean", Int p.stale_mean); ("stale_p50", Int p.stale_p50);
        ("stale_p90", Int p.stale_p90); ("stale_p99", Int p.stale_p99);
        ("stale_max", Int p.stale_max);
      ])

let run config =
  let rows = List.map json (points config) in
  print_table ~title:"Latency/staleness: star vs tree, clean vs lossy (virtual ticks)"
    ~notes:
      [
        "event-driven run: every participant polls on its own staggered loop";
        "over links with uniform latency; staleness is commit-to-leaf-ack time.";
        "expected: tree staleness >= star (extra tier), lossy response >= clean";
      ]
    [
      "shape"; "faults"; "polls"; "response_p50"; "response_p90"; "response_max";
      "stale_p50"; "stale_p90"; "stale_max"; "stale_censored";
    ]
    rows;
  [ ("latency_staleness", Json.List rows) ]
