(* Flat star versus 2-tier k-ary tree at growing consumer counts.  For
   each consumer count [n] a synthetic enterprise directory is built,
   [n] leaves subscribe to department filters (round-robin over a small
   distinct-filter set), an update burst is applied at the root, and
   the topology is synchronized to convergence.  Per point the sweep
   records root-master sessions, Ber bytes on the links into the root
   (initial build and update phases apart), update-phase bytes across
   all links, and the poll rounds to convergence ([-1]: not within the
   cap).

   Expected shape: in the tree, root sessions and root-link bytes are
   flat in [n] (only the interior nodes talk to the root) while the
   star grows both linearly; the tree pays one extra convergence round
   per tier. *)
open Common

type config = {
  consumers_list : int list;
  filters : int;  (* distinct leaf filters (and interior covers) *)
  arity : int;  (* interior nodes of the tree shape *)
  updates : int;  (* update burst between build and measure *)
  employees : int;
}

let default =
  { consumers_list = [ 100; 200; 500; 1000 ]; filters = 20; arity = 4; updates = 200; employees = 4000 }

let smoke = { consumers_list = [ 24; 48 ]; filters = 8; arity = 2; updates = 60; employees = 800 }

let participants_bytes t =
  List.fold_left
    (fun acc l -> acc + upstream_bytes (Leaf.stats l))
    (List.fold_left (fun acc n -> acc + upstream_bytes (Node.stats n)) 0 (Topology.nodes t))
    (Topology.leaves t)

let point cfg shape n =
  let ent = enterprise ~employees:cfg.employees in
  let backend = D.Enterprise.backend ent in
  (* Interior nodes store exactly the distinct leaf filters, so a
     node's content is the union of what its leaves need and nothing
     more; leaves pick their filter round-robin, giving the sharing a
     star cannot exploit. *)
  let fleet = Ldap_eval.Scenario.fleet ~filters:cfg.filters ent in
  let covers = fleet.covers.(0) in
  let leaf_queries = Ldap_eval.Scenario.leaf_queries fleet n in
  match Topology.build ~shape ~covers ~leaf_queries backend with
  | Error e -> failwith ("tree-fanout build: " ^ e)
  | Ok t ->
      let build_root = Topology.root_link_bytes t in
      let build_total = participants_bytes t in
      let stream =
        D.Update_stream.create ent { D.Update_stream.default_config with seed = seed + 1 }
      in
      D.Update_stream.steps stream cfg.updates;
      let convergence_rounds =
        Option.value ~default:(-1) (Topology.rounds_to_converge ~max_rounds:12 t)
      in
      Json.(
        Obj
          [
            ("shape", String (shape_name shape)); ("consumers", Int n);
            ("root_sessions", Int (Ldap_resync.Master.session_count (Topology.master t)));
            ("build_root_bytes", Int build_root);
            ("update_root_bytes", Int (Topology.root_link_bytes t - build_root));
            ("update_total_bytes", Int (participants_bytes t - build_total));
            ("convergence_rounds", Int convergence_rounds);
          ])

let run config =
  let rows =
    List.concat_map
      (fun n -> [ point config Topology.Star n; point config (Topology.Tree { arity = config.arity }) n ])
      config.consumers_list
  in
  print_table ~title:"Tree fan-out: flat star vs 2-tier tree"
    ~notes:
      [
        "root sessions and root-link bytes stay flat in the tree (only the";
        "interior nodes hold root sessions); the star grows both linearly;";
        "the tree pays one extra convergence round for the extra tier";
      ]
    [
      "shape"; "consumers"; "root_sessions"; "build_root_bytes"; "update_root_bytes";
      "update_total_bytes"; "convergence_rounds";
    ]
    rows;
  [ ("tree_fanout", Json.List rows) ]
