open Ldap
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Controller = Ldap_adaptive.Controller
module Resync = Ldap_resync

type t = {
  enterprise : Dirgen.Enterprise.t;
  master : Resync.Master.t;
  net : Network.t;
  transport : Resync.Transport.t;
}

let master_host = "master"

let setup ?(config = Dirgen.Enterprise.default_config) () =
  let enterprise = Dirgen.Enterprise.build config in
  let master = Resync.Master.create (Dirgen.Enterprise.backend enterprise) in
  let net = Network.create () in
  let transport = Resync.Transport.create net in
  Resync.Transport.add_master transport ~name:master_host master;
  { enterprise; master; net; transport }

let replica t = Replication.Filter_replica.create_over t.transport ~master_host

let dept_query ent number =
  Query.make
    ~base:(Dirgen.Enterprise.root_dn ent)
    (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%s)" number))

type fleet = { queries : Query.t array; covers : Query.t list array }

let fleet ?(nodes = 1) ?filters ent =
  let depts = Dirgen.Enterprise.dept_numbers ent in
  let n = min (Option.value ~default:max_int filters) (Array.length depts) in
  let queries = Array.init n (fun i -> dept_query ent depts.(i)) in
  let nodes = min nodes n in
  {
    queries;
    covers =
      Array.init nodes (fun k ->
          List.filteri (fun j _ -> j mod nodes = k) (Array.to_list queries));
  }

let leaf_slot f i =
  let j = i mod Array.length f.queries in
  (j, j mod Array.length f.covers)

let leaf_queries f n = List.init n (fun i -> f.queries.(fst (leaf_slot f i)))

let select_static ?(max_filters = max_int) ?(min_hits = 2) t ~rules ~train ~budget =
  (* The engine's greedy fill over a replica that is never installed
     into, only asked for size estimates; it stops adding once it
     reaches the cap, so the cap is a cut of the pick list. *)
  let ctl =
    Controller.create
      {
        Controller.default_config with
        Controller.rules;
        include_queries = false;
        benefit = Hits;
        min_score = float_of_int min_hits;
        size_budget = budget;
        revolution_interval = 0;
        drift_check_interval = 0;
      }
      (replica t)
  in
  Array.iter
    (fun (item : Dirgen.Workload.item) -> Controller.observe ctl item.Dirgen.Workload.query)
    train;
  List.filteri (fun i _ -> i < max_filters) (Controller.select ctl)

let install_static replica queries =
  List.fold_left
    (fun acc q ->
      Result.bind acc (fun () -> Replication.Filter_replica.install_filter replica q))
    (Ok ()) queries

let subtree_size t root =
  let backend = Dirgen.Enterprise.backend t.enterprise in
  Backend.count_matching backend (Query.make ~base:root Filter.tt)

let choose_subtrees t ~roots ~train ~budget =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun (item : Dirgen.Workload.item) ->
      let base = item.Dirgen.Workload.scoped.Query.base in
      Array.iter
        (fun root ->
          if Dn.ancestor_of root base then
            let key = Dn.canonical root in
            Hashtbl.replace counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        roots)
    train;
  let ranked =
    Array.to_list roots
    |> List.map (fun root ->
           let accesses =
             Option.value ~default:0 (Hashtbl.find_opt counts (Dn.canonical root))
           in
           let size = max 1 (subtree_size t root) in
           (root, size, float_of_int accesses /. float_of_int size))
    |> List.filter (fun (_, _, ratio) -> ratio > 0.0)
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  in
  let chosen, _ =
    List.fold_left
      (fun (chosen, used) (root, size, _) ->
        if used + size <= budget then (root :: chosen, used + size) else (chosen, used))
      ([], 0) ranked
  in
  List.rev chosen

type drive = { queries_between_syncs : int; updates_per_query : float }

let no_updates = { queries_between_syncs = 0; updates_per_query = 0.0 }

let master_answer t (q : Query.t) =
  match Backend.search (Dirgen.Enterprise.backend t.enterprise) q with
  | Ok { Backend.entries; _ } -> entries
  | Error _ -> []

let interleave drive stream ~debt =
  match stream with
  | None -> debt
  | Some stream ->
      let debt = debt +. drive.updates_per_query in
      let n = int_of_float debt in
      if n > 0 then Dirgen.Update_stream.steps stream n;
      debt -. float_of_int n

let drive_filter t replica ?controller ?stream ?(cache_misses = false) drive items =
  let debt = ref 0.0 in
  Array.iteri
    (fun i (item : Dirgen.Workload.item) ->
      debt := interleave drive stream ~debt:!debt;
      if
        drive.queries_between_syncs > 0
        && i > 0
        && i mod drive.queries_between_syncs = 0
      then Replication.Filter_replica.sync replica;
      Option.iter (fun c -> Controller.observe c item.Dirgen.Workload.query) controller;
      match Replication.Filter_replica.answer replica item.Dirgen.Workload.query with
      | Replication.Replica.Answered _ -> ()
      | Replication.Replica.Referral ->
          if cache_misses then
            let result = master_answer t item.Dirgen.Workload.query in
            Replication.Filter_replica.record_miss_result replica
              item.Dirgen.Workload.query result)
    items

let drive_subtree t replica ?stream drive items =
  ignore t;
  let debt = ref 0.0 in
  Array.iteri
    (fun i (item : Dirgen.Workload.item) ->
      debt := interleave drive stream ~debt:!debt;
      if
        drive.queries_between_syncs > 0
        && i > 0
        && i mod drive.queries_between_syncs = 0
      then Replication.Subtree_replica.sync replica;
      ignore (Replication.Subtree_replica.answer replica item.Dirgen.Workload.scoped))
    items
