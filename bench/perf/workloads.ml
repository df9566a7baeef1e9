open Ldap
module E = Ldap_dirgen.Enterprise
module W = Ldap_dirgen.Workload
module Prng = Ldap_dirgen.Prng
module Engine = Ldap_sim.Engine
module Master = Ldap_resync.Master
module Transport = Ldap_resync.Transport
module Protocol = Ldap_resync.Protocol
module Consumer = Ldap_resync.Consumer
module Content = Ldap_resync.Content
module FR = Ldap_replication.Filter_replica
module Replica = Ldap_replication.Replica
module RStats = Ldap_replication.Stats
module Topology = Ldap_topology.Topology
module Leaf = Ldap_topology.Leaf
module Node = Ldap_topology.Node
module Controller = Ldap_adaptive.Controller
module Transition = Ldap_adaptive.Transition
module Generalize = Ldap_selection.Generalize
module Router = Ldap_shard.Router
module Shard_master = Ldap_shard.Shard_master
module Partition = Ldap_shard.Partition
module Medium = Ldap_store.Medium

type kind = Edge_read | Fanout_write | Shard_write | Crash_rejoin

let workloads =
  [
    ("edge-read", Edge_read);
    ("fanout-write", Fanout_write);
    ("shard-write", Shard_write);
    ("crash-rejoin", Crash_rejoin);
  ]

(* --- Parameters ----------------------------------------------------------- *)

type crash = {
  crash_at : int list;  (* window ticks at which a batch of leaves crashes *)
  victims : int;
  down_for : int;
  checkpoint_every : int;
}

type params = {
  dir : E.config;
  nodes : int;
  leaves : int;  (* topology leaves, or consumers behind the router *)
  shards : int;  (* 0: one root master *)
  update_every : int;
  query_every : int;
  window : int;  (* ticks whose virtual and count metrics are reported *)
  ticks_per_s : int;  (* timed ticks per requested second *)
  budget : int;
  revolution : int;
  drift_check : int;
  dept_drift_every : int;
  crash : crash option;
}

(* The default 20k-employee enterprise: a run sets up five times and
   times about the requested seconds, and a series of runs of all four
   workloads must fit in an hour. *)
let full_dir = E.default_config

let smoke_dir =
  {
    E.default_config with
    employees = 2_000;
    countries = 4;
    divisions = 4;
    departments_per_division = 12;
    locations = 8;
    target_countries = 2;
  }

let params kind ~smoke =
  let s small full = if smoke then small else full in
  let base =
    {
      dir = s smoke_dir full_dir;
      nodes = s 4 10;
      leaves = s 24 200;
      shards = 0;
      update_every = 1;
      query_every = 30;
      window = s 600 8_000;
      ticks_per_s = 2_000;
      budget = s 200 2_000;
      revolution = s 100 1_000;
      drift_check = s 20 100;
      dept_drift_every = s 150 3_750;
      crash = None;
    }
  in
  match kind with
  | Edge_read ->
      { base with update_every = 10; query_every = 1; window = s 600 10_000; ticks_per_s = 3_000 }
  | Fanout_write -> { base with leaves = s 48 1000; query_every = 10 }
  | Shard_write ->
      {
        base with
        shards = 4;
        leaves = s 12 100;
        query_every = 10;
        window = s 600 2_000;
        ticks_per_s = 450;
      }
  | Crash_rejoin ->
      {
        base with
        window = s 700 15_000;
        ticks_per_s = 5_000;
        crash =
          Some
            {
              crash_at = s [ 200; 400 ] [ 4_000; 8_000; 12_000 ];
              victims = s 3 20;
              down_for = s 100 2_000;
              checkpoint_every = s 150 2_500;
            };
      }

let poll_every = 50

(* Ticks past the window during which acknowledgements of window
   commits still count. *)
let ack_margin = 10 * poll_every

(* The timed phase covers a fixed number of ticks, so every run of a
   seed times the same operations however fast the machine is; the
   rates put it near the requested seconds on the reference machine. *)
let timed_ticks p ~seconds =
  max (p.window + ack_margin) (Float.to_int (seconds *. float_of_int p.ticks_per_s))

(* --- Small helpers ---------------------------------------------------------- *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort compare a;
    a
end

let must what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
let span = Trace.name
let s_query = span "client.query"
let s_answer = span "filter_replica.answer"
let s_search = span "backend.search"
let s_observe = span "controller.observe"
let s_drift = span "controller.drift_check"
let s_adapt = span "controller.adapt"
let s_estimate = span "endpoint.estimate"
let s_update = span "client.update"
let s_apply = span "backend.apply"
let s_dispatch = span "master.dispatch"
let s_serve_root = span "endpoint.serve_root"
let s_serve_node = span "endpoint.serve_node"
let s_serve_router = span "endpoint.serve_router"
let s_tree = span "endpoint.tree"
let s_router_apply = span "router.apply"
let s_router_search = span "router.search"
let s_restart = span "topology.restart_leaf"
let s_checkpoint = span "topology.checkpoint_leaves"
let s_verify = span "bench.verify"

(* Re-registers an endpoint with spans around its serving calls. *)
let wrap_endpoint tr transport ~name ~serve =
  match Transport.endpoint transport name with
  | None -> invalid_arg ("wrap_endpoint: no endpoint " ^ name)
  | Some ep ->
      Transport.add_endpoint transport ~name
        {
          ep with
          Transport.ep_handle =
            (fun ~push req q -> Trace.within tr serve (fun () -> ep.Transport.ep_handle ~push req q));
          ep_estimate = (fun q -> Trace.within tr s_estimate (fun () -> ep.Transport.ep_estimate q));
          ep_tree = (fun req q -> Trace.within tr s_tree (fun () -> ep.Transport.ep_tree req q));
        }

let dept_queries ent =
  let base = E.root_dn ent in
  Array.map
    (fun d -> Query.make ~base (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%s)" d)))
    (E.dept_numbers ent)

let canon entries =
  List.sort (fun a b -> compare (Dn.canonical (Entry.dn a)) (Dn.canonical (Entry.dn b))) entries

(* Shards stamp modifyTimestamp from their own CSN streams, so
   comparisons against the unsharded source ignore it. *)
let same_entries ?(untimed = false) a b =
  let prep l =
    canon (if untimed then List.map (fun e -> Entry.replace_values e "modifytimestamp" [ "0" ]) l else l)
  in
  let a = prep a and b = prep b in
  List.length a = List.length b && List.for_all2 Entry.equal a b

(* Table 1 queries from Workload.generate, re-ordered so that every 100
   consecutive queries hold the Table 1 mix exactly.  A query's cost
   depends mostly on its kind, and a mix drawn at random varies enough
   between seeds to move the latency percentiles; each kind keeps its
   generated order, so repeats and department drift survive. *)
type qsource = {
  q_ent : E.t;
  q_seed : int;
  q_drift : int;
  queues : (W.kind * W.item Queue.t) list;
  q_block : W.kind array;
  mutable q_pos : int;
  q_prng : Prng.t;
  mutable refills : int;
}

let qsource ent ~seed ~drift =
  let c = W.default_config in
  let mix =
    [ (W.Serial, c.W.serial_pct); (W.Mail, c.W.mail_pct); (W.Dept, c.W.dept_pct); (W.Location, c.W.location_pct) ]
  in
  let block =
    List.concat_map (fun (k, pct) -> List.init (Float.to_int (Float.round (100.0 *. pct))) (fun _ -> k)) mix
  in
  {
    q_ent = ent;
    q_seed = seed;
    q_drift = drift;
    queues = List.map (fun (k, _) -> (k, Queue.create ())) mix;
    q_block = Array.of_list block;
    q_pos = List.length block;
    q_prng = Prng.create seed;
    refills = 0;
  }

let refill qs =
  Array.iter
    (fun (it : W.item) -> Queue.push it (List.assoc it.W.kind qs.queues))
    (W.generate qs.q_ent
       {
         W.default_config with
         seed = qs.q_seed + (7919 * qs.refills);
         length = 4 * qs.q_drift;
         dept_drift_every = qs.q_drift;
       });
  qs.refills <- qs.refills + 1

let next_item qs =
  if qs.q_pos = Array.length qs.q_block then begin
    Prng.shuffle qs.q_prng qs.q_block;
    qs.q_pos <- 0
  end;
  let q = List.assoc qs.q_block.(qs.q_pos) qs.queues in
  qs.q_pos <- qs.q_pos + 1;
  while Queue.is_empty q do
    refill qs
  done;
  Queue.pop q

(* --- Raw counters, read from public accessors ------------------------------- *)

type raw = {
  sync_rpcs : int;
  sync_bytes : int;
  search_bytes : int;
  dropped : int;
  sessions : int;
  history_size : int;
  pending_max : int;
  history_overflows : int;
  push_overflows : int;
  node_polls : int;
  node_scanned : int;
  node_rescans : int;
  seen_residency : int;
  spine_length : int;
  store_bytes : int;
  comparisons : int;
  stored_filters : int;
  size_entries : int;
  fetch_bytes : int;
  adaptations : int;
  failed_installs : int;
  cold_installs : int;
  delta_installs : int;
  leaf_actions : int;
  leaf_retries : int;
  leaf_resyncs : int;
  leaf_entries : int;
  plan_hits : int;
  plan_misses : int;
  searches : int;
  search_contacts : int;
  router_polls : int;
  poll_contacts : int;
  escalations : int;
}

type leaf_totals = { actions : int; retries : int; resyncs : int; entries : int }

let no_leaves = { actions = 0; retries = 0; resyncs = 0; entries = 0 }

let add_leaf_stats acc (s : RStats.t) =
  {
    actions = acc.actions + s.RStats.sync_actions;
    retries = acc.retries + s.RStats.sync_retries;
    resyncs = acc.resyncs + s.RStats.resyncs;
    entries = acc.entries + s.RStats.sync_entries;
  }

(* What one workload's system is made of, for counting. *)
type parts = {
  net : Network.t;
  masters : unit -> Master.t list;
  backends : Backend.t list;  (* the masters' backends *)
  nodes : unit -> Node.t list;
  leaves : unit -> Leaf.t list;
  retired : leaf_totals ref;  (* counters of crashed leaf incarnations *)
  edge : (FR.t * Controller.t) option;
  router : Router.t option;
}

let read_raw parts =
  let ns = Network.stats parts.net in
  let masters = parts.masters () in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let nodes = parts.nodes () in
  let cursor = List.map Node.cursor_stats nodes in
  let leaves =
    List.fold_left (fun acc l -> add_leaf_stats acc (Leaf.stats l)) !(parts.retired) (parts.leaves ())
  in
  let fr f = match parts.edge with Some (e, _) -> f e | None -> 0 in
  let ctl f = match parts.edge with Some (_, c) -> f (Controller.totals c) | None -> 0 in
  let rp = Option.map Router.report parts.router in
  let rt f = match rp with Some r -> f r | None -> 0 in
  {
    sync_rpcs = ns.Network.sync_rpcs;
    sync_bytes = ns.Network.sync_bytes;
    search_bytes = ns.Network.bytes;
    dropped = ns.Network.dropped_pdus;
    sessions = sum Master.session_count masters;
    history_size = sum Master.history_size masters;
    pending_max = List.fold_left (fun acc m -> max acc (snd (Master.pending_stats m))) 0 masters;
    history_overflows = sum Master.history_overflows masters;
    push_overflows = sum Master.push_overflows masters;
    node_polls = sum (fun (p, _, _) -> p) cursor;
    node_scanned = sum (fun (_, s, _) -> s) cursor;
    node_rescans = sum (fun (_, _, r) -> r) cursor;
    seen_residency = sum Node.seen_residency nodes;
    spine_length = sum (fun b -> Content_store.spine_length (Backend.content_store b)) parts.backends;
    store_bytes = sum (fun b -> Content_store.approx_bytes (Backend.content_store b)) parts.backends;
    comparisons = fr FR.comparisons;
    stored_filters = fr (fun e -> List.length (FR.stored_filters e));
    size_entries = fr FR.size_entries;
    fetch_bytes = fr (fun e -> (FR.stats e).RStats.fetch_bytes);
    adaptations = (match parts.edge with Some (_, c) -> Controller.adaptation_count c | None -> 0);
    failed_installs = ctl (fun r -> r.Transition.failed);
    cold_installs = ctl (fun r -> r.Transition.cold);
    delta_installs = ctl (fun r -> r.Transition.rescoped + r.Transition.seeded);
    leaf_actions = leaves.actions;
    leaf_retries = leaves.retries;
    leaf_resyncs = leaves.resyncs;
    leaf_entries = leaves.entries;
    plan_hits = rt (fun r -> r.Router.rp_plan_hits);
    plan_misses = rt (fun r -> r.Router.rp_plan_misses);
    searches = rt (fun r -> r.Router.rp_searches);
    search_contacts = rt (fun r -> r.Router.rp_search_contacts);
    router_polls = rt (fun r -> r.Router.rp_polls);
    poll_contacts = rt (fun r -> r.Router.rp_poll_contacts);
    escalations = rt (fun r -> r.Router.rp_escalations);
  }

(* --- Worlds: one set-up of a workload ---------------------------------------- *)

type rejoin = {
  pending : (string, int * int) Hashtbl.t;  (* leaf -> restart tick, root CSN then *)
  rejoin_ticks : Fvec.t;
  rejoin_bytes : Fvec.t;
  mutable restart_failures : int;
  mutable replayed : int;
  mutable truncated : int;
  mutable merkle_rejoins : int;
  mutable merkle_bytes : int;
}

type world = {
  p : params;
  tr : Trace.t;
  engine : Engine.t;
  parts : parts;
  gen : Gen.t;
  qs : qsource;
  stale : Staleness.t;
  rejoin : rejoin;
  answer : Query.t -> bool option;  (* Some hit, or None on error *)
  observe : Query.t -> unit;  (* after the answer; not client latency *)
  apply : Update.op -> bool;
  commit_vector : unit -> int array;
  control : int -> unit;  (* window tick: crash-rejoin's schedule *)
  verify : W.item list -> Update.op list -> (string * bool) list;
}

let latency = Ldap_sim.Latency.Uniform { lo = 1; hi = 4 }
let horizon_never = 1 lsl 50

let controller_config p =
  {
    Controller.default_config with
    Controller.rules =
      [
        Generalize.Prefix_value { attr = "serialnumber"; keep = 5 };
        Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 };
      ];
    half_life = 2048;
    size_budget = p.budget;
    revolution_interval = p.revolution;
    drift_check_interval = p.drift_check;
    include_queries = false;
    mode = Controller.Delta;
  }

(* The edge replica: adaptive filter selection at the root, polled on
   its own loop. *)
let make_edge p engine transport ~master_host =
  let edge = FR.create_over transport ~master_host ~host:"edge" in
  let ctl = Controller.create (controller_config p) edge in
  let rec poll () = FR.sync_async edge (fun () -> Engine.after engine ~delay:poll_every poll) in
  Engine.after engine ~delay:(poll_every / 2) poll;
  (edge, ctl)

let observe_with tr ctl q =
  let a0 = Controller.adaptation_count ctl and d0 = Controller.drift_checks ctl in
  Trace.enter tr s_observe;
  Controller.observe ctl q;
  Trace.leave_as tr
    (if Controller.adaptation_count ctl > a0 then s_adapt
     else if Controller.drift_checks ctl > d0 then s_drift
     else s_observe)

let new_rejoin () =
  {
    pending = Hashtbl.create 64;
    rejoin_ticks = Fvec.create ();
    rejoin_bytes = Fvec.create ();
    restart_failures = 0;
    replayed = 0;
    truncated = 0;
    merkle_rejoins = 0;
    merkle_bytes = 0;
  }

(* 500 sampled window queries: every one the edge answers must equal
   the root's answer. *)
let check_edge edge backend sample =
  List.for_all
    (fun (it : W.item) ->
      match FR.answer edge it.W.query with
      | Replica.Referral -> true
      | Replica.Answered got -> (
          match Backend.search backend it.W.query with
          | Ok r -> same_entries got r.Backend.entries
          | Error _ -> false))
    sample

let setup_topology p ~seed tr =
  let ent = E.build { p.dir with seed } in
  let backend = E.backend ent in
  (* Brackets the root master's commit hook: registered before and
     after the master subscribes, so the span covers its dispatch. *)
  Backend.subscribe backend (fun _ -> Trace.enter tr s_dispatch);
  let topo = Topology.create backend in
  Backend.subscribe backend (fun _ -> Trace.leave tr);
  Master.set_history_limit (Topology.master topo) (Some 512);
  let dq = dept_queries ent in
  let filters = Array.length dq in
  let nodes = min p.nodes filters in
  for i = 0 to nodes - 1 do
    let covers = List.filteri (fun j _ -> j mod nodes = i) (Array.to_list dq) in
    ignore
      (must "add_node"
         (Topology.add_node topo ~name:(Printf.sprintf "node%d" i) ~parent:(Topology.root topo) ~covers))
  done;
  for i = 0 to p.leaves - 1 do
    let f = i mod filters in
    ignore
      (must "add_leaf"
         (Topology.add_leaf topo ~name:(Printf.sprintf "leaf%d" i)
            ~parent:(Printf.sprintf "node%d" (f mod nodes))
            dq.(f)))
  done;
  let prng = Prng.create (seed + 5) in
  Option.iter
    (fun _ ->
      Topology.enable_durability topo ~sync:false
        ~faults:(Medium.Faults.create ~torn_tail:0.5 ~roll:(fun () -> Prng.float prng 1.0) ()))
    p.crash;
  let transport = Topology.transport topo in
  wrap_endpoint tr transport ~name:(Topology.root topo) ~serve:s_serve_root;
  List.iter (fun n -> wrap_endpoint tr transport ~name:(Node.host n) ~serve:s_serve_node) (Topology.nodes topo);
  let engine = Engine.create ~seed:(seed + 3) () in
  let net = Topology.network topo in
  Network.attach_engine net engine;
  Network.set_default_latency net latency;
  let stale = Staleness.create () in
  let rejoin = new_rejoin () in
  let on_leaf_poll leaf ~start:_ ~finish =
    let acked = Csn.to_int (Leaf.acked_csn leaf) in
    let name = Leaf.name leaf in
    Staleness.ack stale name ~tick:finish [| acked |];
    match Hashtbl.find_opt rejoin.pending name with
    | Some (at, target) when acked >= target ->
        Hashtbl.remove rejoin.pending name;
        let s = Leaf.stats leaf in
        Fvec.push rejoin.rejoin_ticks (float_of_int (finish - at));
        Fvec.push rejoin.rejoin_bytes
          (float_of_int (s.RStats.sync_bytes + s.RStats.fetch_bytes + s.RStats.merkle_bytes));
        rejoin.merkle_bytes <- rejoin.merkle_bytes + s.RStats.merkle_bytes
    | _ -> ()
  in
  Topology.drive_events ~on_leaf_poll topo engine ~poll_every ~until:horizon_never;
  let edge, ctl = make_edge p engine transport ~master_host:(Topology.root topo) in
  let retired = ref no_leaves in
  let down = ref [] in
  let control rel =
    match p.crash with
    | None -> ()
    | Some c ->
        if rel mod c.checkpoint_every = 0 then
          Trace.within tr s_checkpoint (fun () -> Topology.checkpoint_leaves topo);
        if List.mem rel c.crash_at then begin
          let live = Array.of_list (Topology.leaves topo) in
          Prng.shuffle prng live;
          let victims = Array.to_list (Array.sub live 0 (min c.victims (Array.length live))) in
          List.iter
            (fun l ->
              retired := add_leaf_stats !retired (Leaf.stats l);
              Topology.crash_leaf topo l)
            victims;
          down := (rel + c.down_for, List.map Leaf.name victims) :: !down
        end;
        List.iter
          (fun (at, names) ->
            if at = rel then begin
              let batch =
                List.length (List.filter (fun a -> a <= rel) c.crash_at) - 1
              in
              let mode = if batch mod 2 = 0 then Topology.Resume else Topology.Merkle in
              List.iter
                (fun name ->
                  match
                    Trace.within tr s_restart (fun () -> Topology.restart_leaf ~mode topo ~name)
                  with
                  | Error _ -> rejoin.restart_failures <- rejoin.restart_failures + 1
                  | Ok (_, report) ->
                      Hashtbl.replace rejoin.pending name
                        (Engine.now engine, Csn.to_int (Backend.csn backend));
                      if mode = Topology.Merkle then
                        rejoin.merkle_rejoins <- rejoin.merkle_rejoins + 1;
                      Option.iter
                        (fun (r : FR.recovery_report) ->
                          List.iter
                            (fun (f : FR.filter_recovery) ->
                              rejoin.replayed <- rejoin.replayed + f.FR.fr_replayed;
                              if f.FR.fr_truncated then rejoin.truncated <- rejoin.truncated + 1)
                            r.FR.filters)
                        report)
                names
            end)
          !down
  in
  let verify sample _ops =
    let rounds = Topology.rounds_to_converge topo in
    FR.sync edge;
    [
      ("every leaf converges within 16 poll rounds", rounds <> None);
      ("edge answers equal root answers", check_edge edge backend sample);
      ("every restart succeeds", rejoin.restart_failures = 0);
      ("every restarted leaf rejoins", Hashtbl.length rejoin.pending = 0);
    ]
  in
  {
    p;
    tr;
    engine;
    parts =
      {
        net;
        masters = (fun () -> [ Topology.master topo ]);
        backends = [ backend ];
        nodes = (fun () -> Topology.nodes topo);
        leaves = (fun () -> Topology.leaves topo);
        retired;
        edge = Some (edge, ctl);
        router = None;
      };
    gen = Gen.create ent ~seed:(seed + 1);
    qs = qsource ent ~seed:(seed + 2) ~drift:p.dept_drift_every;
    stale;
    rejoin;
    answer =
      (fun q ->
        match Trace.within tr s_answer (fun () -> FR.answer edge q) with
        | Replica.Answered _ -> Some true
        | Replica.Referral -> (
            match Trace.within tr s_search (fun () -> Backend.search backend q) with
            | Ok _ -> Some false
            | Error _ -> None));
    observe = observe_with tr ctl;
    apply = (fun op -> Result.is_ok (Trace.within tr s_apply (fun () -> Backend.apply backend op)));
    commit_vector = (fun () -> [| Csn.to_int (Backend.csn backend) |]);
    control;
    verify;
  }

(* What a router consumer has acknowledged: per shard, the CSN of its
   composite cookie's component; shards outside its cover never need
   acknowledging. *)
let shard_acks shards leaf q cover =
  let v = Array.make shards max_int in
  List.iter (fun s -> v.(s) <- 0) cover;
  (match Option.bind (FR.consumer_for (Leaf.replica leaf) q) Consumer.cookie with
  | None -> ()
  | Some cookie ->
      List.iter
        (fun (s, component) ->
          match Protocol.parse_cookie component with
          | Some (_, csn) when s < shards && v.(s) <> max_int -> v.(s) <- Csn.to_int csn
          | _ -> ())
        (Option.value ~default:[] (Protocol.parse_composite_cookie cookie)));
  v

let setup_shards p ~seed tr =
  let ent = E.build { p.dir with seed } in
  (* The built directory only seeds the shards; after the run every
     routed write is replayed on it to give the reference answers. *)
  let source = E.backend ent in
  let net = Network.create () in
  let transport = Transport.create net in
  let partition = Partition.of_enterprise ent ~shards:p.shards in
  let masters =
    Array.init p.shards (fun i -> Shard_master.create (E.schema ent) ~indexed:E.indexed_attrs ~id:i)
  in
  let router = Router.create partition transport masters in
  must "seed_from_backend" (Router.seed_from_backend router source);
  Array.iter (fun sm -> Master.set_history_limit (Shard_master.master sm) (Some 512)) masters;
  let dq = dept_queries ent in
  let leaves =
    List.init p.leaves (fun i ->
        let q = dq.(i mod Array.length dq) in
        let leaf = Leaf.create transport ~name:(Printf.sprintf "consumer%d" i) ~parent:(Router.host router) in
        must "subscribe" (Leaf.subscribe leaf q);
        (leaf, q, Router.cover router q))
  in
  wrap_endpoint tr transport ~name:(Router.host router) ~serve:s_serve_router;
  Array.iter (fun sm -> wrap_endpoint tr transport ~name:(Shard_master.host sm) ~serve:s_serve_root) masters;
  let engine = Engine.create ~seed:(seed + 3) () in
  Network.attach_engine net engine;
  Network.set_default_latency net latency;
  let stale = Staleness.create () in
  List.iteri
    (fun i (leaf, q, cover) ->
      let rec poll () =
        Leaf.sync_async leaf (fun () ->
            Staleness.ack stale (Leaf.name leaf) ~tick:(Engine.now engine)
              (shard_acks p.shards leaf q cover);
            Engine.after engine ~delay:poll_every poll)
      in
      Engine.after engine ~delay:(i mod poll_every) poll)
    leaves;
  let verify sample ops =
    let replayed = List.for_all (fun op -> Result.is_ok (Backend.apply source op)) ops in
    let converged () =
      List.for_all
        (fun (leaf, q, _) ->
          same_entries ~untimed:true
            (Replica.eval_over_entries (E.schema ent) q (Leaf.content_seq leaf q))
            (Content.current source q))
        leaves
    in
    let rec settle n =
      converged () || (n > 0 && (List.iter (fun (l, _, _) -> Leaf.sync l) leaves; settle (n - 1)))
    in
    let searches =
      List.for_all
        (fun (it : W.item) ->
          match (Router.search router it.W.query, Backend.search source it.W.query) with
          | Ok got, Ok want -> same_entries ~untimed:true got want.Backend.entries
          | _ -> false)
        (List.filteri (fun i _ -> i < 200) sample)
    in
    [
      ("every routed write replays on the source directory", replayed);
      ("every consumer's content equals the source's within 16 polls", settle 16);
      ("router searches equal source searches", searches);
    ]
  in
  {
    p;
    tr;
    engine;
    parts =
      {
        net;
        masters = (fun () -> Array.to_list (Array.map Shard_master.master masters));
        backends = Array.to_list (Array.map Shard_master.backend masters);
        nodes = (fun () -> []);
        leaves = (fun () -> List.map (fun (l, _, _) -> l) leaves);
        retired = ref no_leaves;
        edge = None;
        router = Some router;
      };
    gen = Gen.create ent ~seed:(seed + 1);
    qs = qsource ent ~seed:(seed + 2) ~drift:p.dept_drift_every;
    stale;
    rejoin = new_rejoin ();
    answer =
      (fun q ->
        match Trace.within tr s_router_search (fun () -> Router.search router q) with
        | Ok _ -> Some false
        | Error _ -> None);
    observe = ignore;
    apply = (fun op -> Result.is_ok (Trace.within tr s_router_apply (fun () -> Router.apply router op)));
    commit_vector =
      (fun () -> Array.init p.shards (fun i -> Csn.to_int (Shard_master.csn (Router.shard router i))));
    control = ignore;
    verify;
  }

let setup kind p ~seed tr =
  let w = match kind with Shard_write -> setup_shards p ~seed tr | _ -> setup_topology p ~seed tr in
  Gc.compact ();
  w

(* --- The timed phase ----------------------------------------------------------- *)

type pass = {
  queries : int;  (* timed, window or not *)
  updates : int;
  failures : int;
  q_lat : float array;  (* calibrated ns, ascending *)
  u_lat : float array;
  timed_ns : int;
  speed : float;  (* mean speed factor of the timed phase *)
  window_ns : float;  (* calibrated timed ns up to the end of the window *)
  untraced_ns : int;  (* timed ns outside top-level spans *)
  win_queries : int;
  win_hits : int;
  win_updates : int;
  raw0 : raw;
  raw1 : raw;  (* at the end of the window *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  stale : Staleness.summary;
  rejoin_ticks : float array;
  rejoin_bytes : float array;
  rj : rejoin;
  checks : (string * bool) list;
}

let chunk_ticks = 16

(* A chunk of ticks run under one clock reading, and where its
   operations' latencies end in the latency vectors. *)
type chunk = { from_ns : int; until_ns : int; q_end : int; u_end : int; in_window : bool }

(* Divides each chunk's latencies and duration by the machine-speed
   factor around it; returns the calibrated timed and window ns. *)
let calibrate cal chunks q_lat u_lat =
  let timed = ref 0.0 and window = ref 0.0 and q = ref 0 and u = ref 0 in
  List.iter
    (fun c ->
      let f = Calib.factor cal ~from_ns:c.from_ns ~until_ns:c.until_ns in
      let scale (v : Fvec.t) lo hi = for i = lo to hi - 1 do v.a.(i) <- v.a.(i) /. f done in
      scale q_lat !q c.q_end;
      scale u_lat !u c.u_end;
      q := c.q_end;
      u := c.u_end;
      let d = float_of_int (c.until_ns - c.from_ns) /. f in
      timed := !timed +. d;
      if c.in_window then window := !window +. d)
    chunks;
  (!timed, !window)

let drive w ~cal ~seed ~seconds =
  let p = w.p and tr = w.tr and engine = w.engine in
  Trace.reset tr;
  let t0 = Engine.now engine in
  let horizon = p.window + ack_margin in
  let span = timed_ticks p ~seconds in
  let raw0 = read_raw w.parts in
  let gc0 = Gc.quick_stat () in
  let q_lat = Fvec.create () and u_lat = Fvec.create () in
  let queries = ref 0 and updates = ref 0 and failures = ref 0 in
  let win_queries = ref 0 and win_hits = ref 0 and win_updates = ref 0 in
  let pool = ref [] and ops_log = ref [] in
  let exec r (u, q) =
    w.control r;
    Trace.set_request tr r;
    (match u with
    | None -> ()
    | Some op ->
        Trace.enter tr s_update;
        let a = Clock.now_ns () in
        let ok = w.apply op in
        let d = Clock.now_ns () - a in
        Trace.leave tr;
        Fvec.push u_lat (float_of_int d);
        incr updates;
        if not ok then incr failures
        else begin
          ops_log := op :: !ops_log;
          if r <= p.window then begin
            incr win_updates;
            Staleness.commit w.stale ~tick:(t0 + r) (w.commit_vector ())
          end
        end);
    (match q with
    | None -> ()
    | Some (it : W.item) ->
        Trace.enter tr s_query;
        let a = Clock.now_ns () in
        let res = w.answer it.W.query in
        let d = Clock.now_ns () - a in
        Trace.leave tr;
        Fvec.push q_lat (float_of_int d);
        incr queries;
        (match res with
        | None -> incr failures
        | Some hit ->
            if r <= p.window then begin
              incr win_queries;
              if hit then incr win_hits;
              pool := it :: !pool
            end);
        w.observe it.W.query);
    Trace.set_request tr 0
  in
  let rel = ref 0 and timed = ref 0 and chunks = ref [] in
  let raw1 = ref raw0 in
  Calib.sample cal;
  while !rel < span do
    (* Inputs for the next chunk are made before its clock starts; a
       chunk ends exactly at the window's end so the snapshot there
       stays untimed. *)
    let n = min chunk_ticks (span - !rel) in
    let n = if !rel < p.window then min n (p.window - !rel) else n in
    let sched =
      Array.init n (fun k ->
          let r = !rel + 1 + k in
          ( (if r mod p.update_every = 0 then Some (Gen.next w.gen) else None),
            if r mod p.query_every = 0 then Some (next_item w.qs) else None ))
    in
    let c0 = Clock.now_ns () in
    Array.iter
      (fun op ->
        incr rel;
        let r = !rel in
        Engine.schedule engine ~time:(t0 + r) (fun () -> exec r op);
        Engine.run_until engine ~time:(t0 + r))
      sched;
    let c1 = Clock.now_ns () in
    timed := !timed + (c1 - c0);
    let in_window = !rel <= p.window in
    chunks := { from_ns = c0; until_ns = c1; q_end = q_lat.Fvec.n; u_end = u_lat.Fvec.n; in_window } :: !chunks;
    if !rel = p.window then raw1 := read_raw w.parts;
    Calib.tick cal
  done;
  Calib.sample cal;
  let timed_cal, window_ns = calibrate cal (List.rev !chunks) q_lat u_lat in
  let untraced_ns = !timed - Trace.top_level_ns tr in
  let gc1 = Gc.quick_stat () in
  let stale = Staleness.summarize w.stale ~horizon:(t0 + horizon) in
  (* Checks, off the clock: let polls catch up, then verify from inside
     an event so synchronous exchanges run without advancing time. *)
  Engine.run_until engine ~time:(Engine.now engine + (8 * poll_every));
  let pool = Array.of_list (List.rev !pool) in
  let prng = Prng.create (seed + 6) in
  let sample =
    if Array.length pool = 0 then []
    else List.init 500 (fun _ -> pool.(Prng.int prng (Array.length pool)))
  in
  let checks = ref [] in
  let at = Engine.now engine + 1 in
  Engine.schedule engine ~time:at (fun () ->
      checks := Trace.within tr s_verify (fun () -> w.verify sample (List.rev !ops_log)));
  Engine.run_until engine ~time:at;
  {
    queries = !queries;
    updates = !updates;
    failures = !failures;
    q_lat = Fvec.sorted q_lat;
    u_lat = Fvec.sorted u_lat;
    timed_ns = !timed;
    speed = float_of_int !timed /. timed_cal;
    window_ns;
    untraced_ns;
    win_queries = !win_queries;
    win_hits = !win_hits;
    win_updates = !win_updates;
    raw0;
    raw1 = !raw1;
    gc0;
    gc1;
    stale;
    rejoin_ticks = Fvec.sorted w.rejoin.rejoin_ticks;
    rejoin_bytes = Fvec.sorted w.rejoin.rejoin_bytes;
    rj = w.rejoin;
    checks = !checks;
  }

(* --- Metrics ------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type outcome = {
  workload : string;
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let us ns = ns /. 1e3
let mb bytes = float_of_int bytes /. 1048576.0
let pctl sorted p = if Array.length sorted = 0 then 0.0 else Stats.percentile sorted p

(* End-to-end metrics on the virtual clock: they repeat exactly for a
   seed, traced or not. *)
let virtual_metrics ps =
  let st = ps.stale in
  let ops = ps.win_queries + ps.win_updates in
  [
    m "stale_p50_ticks" "ticks" st.Staleness.p50 ~samples:st.Staleness.pairs;
    m "stale_p99_ticks" "ticks" st.Staleness.p99 ~samples:st.Staleness.pairs;
    m "wire_bytes_per_op" "bytes"
      (ratio
         (ps.raw1.sync_bytes + ps.raw1.search_bytes - ps.raw0.sync_bytes - ps.raw0.search_bytes)
         ops)
      ~samples:ops;
  ]

let end_to_end ps ~setup_s =
  [
    m "setup_s" "s" (Stats.median setup_s) ~samples:(List.length setup_s);
    m "peak_rss_mb" "MB" (float_of_int (Ldap_topology.Sweep.peak_rss_kb ()) /. 1024.0);
    m "ops_per_s" "1/s"
      (float_of_int (ps.queries + ps.updates) *. 1e9 *. ps.speed /. float_of_int ps.timed_ns)
      ~samples:(ps.queries + ps.updates);
    m "query_p50_us" "us" (us (pctl ps.q_lat 0.5)) ~samples:ps.queries;
    m "query_p90_us" "us" (us (pctl ps.q_lat 0.9)) ~samples:ps.queries;
    m "update_p50_us" "us" (us (pctl ps.u_lat 0.5)) ~samples:ps.updates;
    m "update_p99_us" "us" (us (pctl ps.u_lat 0.99)) ~samples:ps.updates;
  ]
  @ virtual_metrics ps

(* Per-layer counters over the window: they repeat exactly too. *)
let window_metrics ps =
  let a = ps.raw0 and b = ps.raw1 in
  let d f = float_of_int (f b - f a) in
  let g f = float_of_int (f b) in
  let c name f = m name "count" (d f) in
  [
    m "hit_ratio" "ratio" (ratio ps.win_hits ps.win_queries) ~samples:ps.win_queries;
    m "stale.censored" "count" (float_of_int ps.stale.Staleness.censored);
    m "rejoin_ticks_p50" "ticks" (pctl ps.rejoin_ticks 0.5) ~samples:(Array.length ps.rejoin_ticks);
    m "rejoin_bytes_per_leaf" "bytes"
      (if Array.length ps.rejoin_bytes = 0 then 0.0
       else Array.fold_left ( +. ) 0.0 ps.rejoin_bytes /. float_of_int (Array.length ps.rejoin_bytes))
      ~samples:(Array.length ps.rejoin_bytes);
    c "network.sync_rpcs" (fun r -> r.sync_rpcs);
    m "network.sync_bytes" "bytes" (d (fun r -> r.sync_bytes));
    m "network.search_bytes" "bytes" (d (fun r -> r.search_bytes));
    c "network.dropped_pdus" (fun r -> r.dropped);
    m "master.sessions" "count" (g (fun r -> r.sessions));
    m "master.history_size" "count" (g (fun r -> r.history_size));
    m "master.pending_max" "count" (g (fun r -> r.pending_max));
    c "master.history_overflows" (fun r -> r.history_overflows);
    c "master.push_overflows" (fun r -> r.push_overflows);
    c "node.polls" (fun r -> r.node_polls);
    m "node.scanned_per_poll" "ratio"
      (ratio (b.node_scanned - a.node_scanned) (b.node_polls - a.node_polls));
    c "node.rescans" (fun r -> r.node_rescans);
    m "node.seen_residency" "count" (g (fun r -> r.seen_residency));
    m "content_store.spine_length" "count" (g (fun r -> r.spine_length));
    m "content_store.approx_mb" "MB" (mb b.store_bytes);
    m "filter_replica.comparisons_per_query" "ratio"
      (ratio (b.comparisons - a.comparisons) ps.win_queries);
    m "filter_replica.stored_filters" "count" (g (fun r -> r.stored_filters));
    m "filter_replica.size_entries" "count" (g (fun r -> r.size_entries));
    m "filter_replica.fetch_bytes" "bytes" (d (fun r -> r.fetch_bytes));
    c "controller.adaptations" (fun r -> r.adaptations);
    c "controller.failed_installs" (fun r -> r.failed_installs);
    c "controller.cold_installs" (fun r -> r.cold_installs);
    c "controller.delta_installs" (fun r -> r.delta_installs);
    c "leaf.sync_actions" (fun r -> r.leaf_actions);
    c "leaf.sync_retries" (fun r -> r.leaf_retries);
    c "leaf.resyncs" (fun r -> r.leaf_resyncs);
    c "leaf.changes_applied" (fun r -> r.leaf_entries);
    m "router.plan_hit_ratio" "ratio"
      (ratio (b.plan_hits - a.plan_hits) (b.plan_hits - a.plan_hits + b.plan_misses - a.plan_misses));
    m "router.contacts_per_search" "ratio"
      (ratio (b.search_contacts - a.search_contacts) (b.searches - a.searches));
    m "router.contacts_per_poll" "ratio"
      (ratio (b.poll_contacts - a.poll_contacts) (b.router_polls - a.router_polls));
    c "router.escalations" (fun r -> r.escalations);
    m "store.wal_replayed" "count" (float_of_int ps.rj.replayed);
    m "store.wal_truncated" "count" (float_of_int ps.rj.truncated);
    m "antientropy.merkle_rejoins" "count" (float_of_int ps.rj.merkle_rejoins);
    m "antientropy.bytes" "bytes" (float_of_int ps.rj.merkle_bytes);
  ]

(* Span times are divided by the timed phase's mean speed factor, like
   the end-to-end times. *)
let span_metrics tr ps =
  let cal ns = float_of_int ns /. ps.speed in
  let spans =
    List.concat_map
      (fun s ->
        let sm = Trace.summary tr (Trace.name s) in
        let n = sm.Trace.calls in
        [
          m (s ^ ".calls") "count" (float_of_int n);
          m (s ^ ".self_ms") "ms" (cal sm.Trace.self_ns /. 1e6) ~samples:n;
          m (s ^ ".p99_us") "us" (us (pctl sm.Trace.durations_ns 0.99) /. ps.speed) ~samples:n;
          m (s ^ ".minor_words_per_call") "words" (ratio sm.Trace.self_words n) ~samples:n;
        ])
      Trace.span_names
  in
  let ops = ps.queries + ps.updates in
  spans
  @ [
      m "engine.unattributed_ms" "ms" (cal ps.untraced_ns /. 1e6);
      m "trace.attributed_share" "ratio" (1.0 -. ratio ps.untraced_ns ps.timed_ns);
      m "gc.minor_words_per_op" "words"
        ((ps.gc1.Gc.minor_words -. ps.gc0.Gc.minor_words) /. float_of_int (max 1 ops))
        ~samples:ops;
      m "gc.major_collections" "count"
        (float_of_int (ps.gc1.Gc.major_collections - ps.gc0.Gc.major_collections));
      m "gc.top_heap_mb" "MB" (mb (ps.gc1.Gc.top_heap_words * (Sys.word_size / 8)));
    ]

(* --- One benchmark run --------------------------------------------------------- *)

(* Set-ups per untraced run; set-up time is their median. *)
let setups = 5

let run kind ~seed ~seconds ~smoke ~spans =
  let p = params kind ~smoke in
  let workload = fst (List.find (fun (_, k) -> k = kind) workloads) in
  let cal = Calib.create () in
  let setup_s = ref [] in
  let fresh ~traced =
    Gc.compact ();
    let tr = Trace.create ~enabled:traced in
    for _ = 1 to 3 do
      Calib.sample cal
    done;
    let c0 = Clock.now_ns () in
    let w = setup kind p ~seed tr in
    let c1 = Clock.now_ns () in
    for _ = 1 to 3 do
      Calib.sample cal
    done;
    let f = Calib.factor cal ~from_ns:c0 ~until_ns:c1 in
    setup_s := (float_of_int (c1 - c0) /. 1e9 /. f) :: !setup_s;
    w
  in
  let finish ps ~checks metrics =
    let checks = ps.checks @ checks in
    let failed_checks = List.filter (fun (_, ok) -> not ok) checks in
    let attempted = ps.queries + ps.updates + List.length checks in
    let failed = ps.failures + List.length failed_checks in
    {
      workload;
      metrics = metrics ~attempted ~failed;
      attempted;
      failed;
      problems =
        (if ps.failures > 0 then [ Printf.sprintf "%d operations returned an error" ps.failures ]
         else [])
        @ List.map (fun (what, _) -> "check failed: " ^ what) failed_checks;
    }
  in
  match spans with
  | None ->
      for _ = 2 to setups do
        ignore (fresh ~traced:false)
      done;
      let ps = drive (fresh ~traced:false) ~cal ~seed ~seconds in
      let checks =
        if smoke then []
        else
          [
            ("ten queries beyond query_p90_us", Stats.beyond ps.queries 0.9 >= 10);
            ("ten updates beyond update_p99_us", Stats.beyond ps.updates 0.99 >= 10);
          ]
      in
      finish ps ~checks (fun ~attempted:_ ~failed:_ -> end_to_end ps ~setup_s:!setup_s)
  | Some oc ->
      let base = drive (fresh ~traced:false) ~cal ~seed ~seconds:0.0 in
      let w = fresh ~traced:true in
      let ps = drive w ~cal ~seed ~seconds in
      Trace.write_tsv w.tr oc ~workload;
      let exact ps = virtual_metrics ps @ window_metrics ps in
      let same =
        List.for_all2
          (fun a b -> String.equal a.name b.name && a.value = b.value)
          (exact base) (exact ps)
      in
      let overhead = (ps.window_ns /. base.window_ns) -. 1.0 in
      finish ps
        ~checks:[ ("tracing leaves the virtual and count metrics unchanged", same) ]
        (fun ~attempted ~failed ->
          span_metrics w.tr ps @ window_metrics ps
          @ [
              m "fail_ratio" "ratio" (ratio failed attempted) ~samples:attempted;
              m "trace.overhead" "ratio" overhead;
            ])
