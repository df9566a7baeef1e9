(* Branch office: the paper's motivating scenario.

   A remote geography holding ~30% of the enterprise's employees wants
   fast lookups without replicating the whole directory.  We compare a
   subtree-based replica (whole country subtrees) against a
   filter-based replica (generalized serial-number prefix filters) at
   the same entry budget, on the same workload, with live updates
   flowing from headquarters.

   Run with: dune exec examples/branch_office.exe *)

module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Selection = Ldap_selection
module Eval = Ldap_eval
module Scenario = Eval.Scenario

let () =
  print_endline "building the enterprise directory (8000 employees)...";
  let config =
    { Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 8_000 }
  in
  let scenario = Scenario.setup ~config () in
  let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
  let budget = persons / 10 in
  Printf.printf "entry budget for the branch replica: %d (10%% of %d persons)\n\n"
    budget persons;

  (* A serial-number lookup workload biased toward the geography. *)
  let workload =
    {
      Dirgen.Workload.default_config with
      Dirgen.Workload.length = 8_000;
      serial_pct = 1.0;
      mail_pct = 0.0;
      dept_pct = 0.0;
      location_pct = 0.0;
    }
  in
  let items = Dirgen.Workload.generate scenario.Scenario.enterprise workload in
  let train = Array.sub items 0 4_000 in
  let eval = Array.sub items 4_000 4_000 in

  (* Filter-based branch replica: generalized serial blocks. *)
  let replica = Scenario.replica scenario in
  let rule = Selection.Generalize.Prefix_value { attr = "serialnumber"; keep = 6 } in
  let filters = Scenario.select_static scenario ~rules:[ rule ] ~train ~budget in
  (match Scenario.install_static replica filters with
  | Ok () -> ()
  | Error e -> failwith e);
  Printf.printf "filter replica: %d generalized filters, %d entries\n"
    (List.length filters)
    (Replication.Filter_replica.size_entries replica);

  (* Subtree-based branch replica: whole country subtrees. *)
  let roots =
    Array.init
      (Dirgen.Enterprise.config scenario.Scenario.enterprise).Dirgen.Enterprise.countries
      (Dirgen.Enterprise.country_dn scenario.Scenario.enterprise)
  in
  let subtrees = Scenario.choose_subtrees scenario ~roots ~train ~budget in
  let subtree =
    Replication.Subtree_replica.create scenario.Scenario.transport
      ~master_host:Scenario.master_host ~subtrees
  in
  Printf.printf "subtree replica: %d country subtrees, %d entries\n\n"
    (List.length subtrees)
    (Replication.Subtree_replica.size_entries subtree);

  (* Serve the branch workload with live updates from headquarters. *)
  let drive = { Scenario.queries_between_syncs = 500; Scenario.updates_per_query = 0.2 } in
  let stream =
    Dirgen.Update_stream.create scenario.Scenario.enterprise
      Dirgen.Update_stream.default_config
  in
  Scenario.drive_filter scenario replica ~stream drive eval;
  let f = Replication.Filter_replica.stats replica in
  Scenario.drive_subtree scenario subtree drive eval;
  let s = Replication.Subtree_replica.stats subtree in

  Printf.printf "%-22s %12s %18s\n" "" "hit ratio" "update traffic";
  Printf.printf "%-22s %12.3f %14d entries\n" "filter-based"
    (Replication.Stats.hit_ratio f) f.Replication.Stats.sync_entries;
  Printf.printf "%-22s %12.3f %14d entries\n" "subtree-based"
    (Replication.Stats.hit_ratio s) s.Replication.Stats.sync_entries;
  print_newline ();
  print_endline
    "at the same entry budget the filter replica answers several times more";
  print_endline
    "of the branch's queries; to match its hit ratio the subtree replica";
  print_endline
    "would need to hold whole extra country subtrees and receive their";
  print_endline "update traffic too (Figure 6 in the bench output)."
