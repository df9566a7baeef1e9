(* Distributed deployment: a branch replica as a first-class server.

   The master serves o=xyz at headquarters; the branch office runs a
   filter-based replica registered in the same (simulated) network.
   Clients always talk to the branch: contained queries are answered in
   one round trip, everything else produces a referral that the client
   chases to the master — so correctness never depends on what the
   replica holds, only latency does.  Every answer is checked against
   the master's own search; a mismatch fails the run.

   Run with: dune exec examples/distributed.exe *)

open Ldap
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Selection = Ldap_selection
module Eval = Ldap_eval

let () =
  let scenario =
    Eval.Scenario.setup
      ~config:{ Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 5_000 }
      ()
  in
  let enterprise = scenario.Eval.Scenario.enterprise in
  let backend = Dirgen.Enterprise.backend enterprise in

  (* Topology: hq is a full server, branch is a replica endpoint, on
     the network the replica synchronizes over. *)
  let net = scenario.Eval.Scenario.net in
  Network.add_handler net ~name:"hq" (Server.handler backend);
  let replica = Eval.Scenario.replica scenario in
  (* Replicate the hottest serial blocks for the branch's geography. *)
  let items =
    Dirgen.Workload.generate enterprise
      {
        Dirgen.Workload.default_config with
        Dirgen.Workload.length = 4_000;
        serial_pct = 1.0; mail_pct = 0.0; dept_pct = 0.0; location_pct = 0.0;
      }
  in
  let rule = Selection.Generalize.Prefix_value { attr = "serialnumber"; keep = 6 } in
  let filters =
    Eval.Scenario.select_static ~max_filters:40 ~min_hits:1
      scenario ~rules:[ rule ] ~train:items ~budget:max_int
  in
  (match Eval.Scenario.install_static replica filters with
  | Ok () -> ()
  | Error e -> failwith e);
  Network.add_handler net ~name:"branch"
    (Replication.Replica_server.handler ~master_host:"hq" replica);
  Printf.printf "branch replica: %d filters, %d entries\n\n"
    (List.length (Replication.Filter_replica.stored_filters replica))
    (Replication.Filter_replica.size_entries replica);

  (* Clients at the branch run the workload against "branch" only;
     each search hop is one RPC exchange. *)
  let total = 1_000 in
  let local = ref 0 and chased = ref 0 in
  let dns entries =
    List.sort compare (List.map (fun e -> Dn.canonical (Entry.dn e)) entries)
  in
  Network.reset_stats net;
  Array.iteri
    (fun i (item : Dirgen.Workload.item) ->
      if i < total then begin
        let q = item.Dirgen.Workload.query in
        let before = (Network.stats net).Network.sync_rpcs in
        let answer =
          match Network.search net ~from:"branch" q with
          | Ok entries -> entries
          | Error e -> failwith e
        in
        let cost = (Network.stats net).Network.sync_rpcs - before in
        if cost = 1 then incr local else incr chased;
        match Backend.search backend q with
        | Ok { Backend.entries; _ } when dns entries = dns answer -> ()
        | Ok _ -> failwith ("answer differs from the master's: " ^ Query.to_string q)
        | Error _ -> failwith ("the master cannot answer: " ^ Query.to_string q)
      end)
    items;
  let stats = Network.stats net in
  Printf.printf "%d queries: %d answered at the branch, %d chased to hq\n" total
    !local !chased;
  Printf.printf "round trips: %d (vs %d without the replica)\n"
    stats.Network.sync_rpcs (2 * total);
  Printf.printf "every query returned the same answer the master would give.\n"
