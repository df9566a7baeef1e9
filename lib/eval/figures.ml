open Ldap
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication
module Selection = Ldap_selection
module Resync = Ldap_resync
module Adaptive = Ldap_adaptive

let serial_rule = Selection.Generalize.Prefix_value { attr = "serialnumber"; keep = 6 }

let dept_rules =
  [
    Selection.Generalize.Widen_to_presence { attr = "departmentnumber" };
    Selection.Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 };
  ]

let mail_rule = Selection.Generalize.Prefix_value { attr = "mail"; keep = 3 }

(* Section 6.2's dynamic selection: department candidates ranked by
   hits since the last revolution, re-selected every [interval]
   queries, new filters fetched whole. *)
let revolutions ~interval ~budget replica =
  Adaptive.Controller.create
    {
      Adaptive.Controller.default_config with
      Adaptive.Controller.rules = dept_rules;
      benefit = Hits;
      min_score = 2.0;
      size_budget = budget;
      revolution_interval = interval;
      drift_check_interval = 0;
      mode = Fetch;
    }
    replica

(* A replica that keeps failing its installs looks exactly like one
   that chose badly unless the run says so. *)
let check_installs controller =
  let failed = (Adaptive.Controller.totals controller).Adaptive.Transition.failed in
  if failed > 0 then failwith (Printf.sprintf "%d filter installs failed" failed)

let serial_only length seed =
  {
    Dirgen.Workload.default_config with
    Dirgen.Workload.length;
    seed;
    serial_pct = 1.0;
    mail_pct = 0.0;
    dept_pct = 0.0;
    location_pct = 0.0;
  }

let mail_only length seed =
  {
    Dirgen.Workload.default_config with
    Dirgen.Workload.length;
    seed;
    serial_pct = 0.0;
    mail_pct = 1.0;
    dept_pct = 0.0;
    location_pct = 0.0;
  }

let dept_only length seed =
  {
    Dirgen.Workload.default_config with
    Dirgen.Workload.length;
    seed;
    serial_pct = 0.0;
    mail_pct = 0.0;
    dept_pct = 1.0;
    location_pct = 0.0;
  }

let split_halves items =
  let n = Array.length items in
  (Array.sub items 0 (n / 2), Array.sub items (n / 2) (n - (n / 2)))

(* --- Table 1 --------------------------------------------------------- *)

let table1 ?(scale = 1.0) (scenario : Scenario.t) =
  let config =
    {
      Dirgen.Workload.default_config with
      Dirgen.Workload.length =
        int_of_float (scale *. float_of_int Dirgen.Workload.default_config.Dirgen.Workload.length);
    }
  in
  let items = Dirgen.Workload.generate scenario.Scenario.enterprise config in
  let mix = Dirgen.Workload.mix_of items in
  let paper = [ 0.58; 0.24; 0.16; 0.02 ] in
  let rows =
    List.map2
      (fun (kind, observed) expected ->
        [
          Dirgen.Workload.kind_name kind;
          Report.fmt_pct expected;
          Report.fmt_pct observed;
        ])
      mix paper
  in
  Report.make ~title:"Table 1: workload distribution"
    ~notes:
      [
        "paper: serialNumber 58%, mail 24%, dept+div 16%, location 2%";
        Printf.sprintf "generated %d queries (repeats included)" (Array.length items);
      ]
    ~columns:[ "query type"; "paper"; "generated" ] ~rows ()

(* --- Figure 2 --------------------------------------------------------- *)

let figure2 () =
  let entry dn attrs = Entry.make (Dn.of_string_exn dn) attrs in
  let person name parent serial =
    entry
      (Printf.sprintf "cn=%s,%s" name parent)
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ name ]); ("sn", [ name ]); ("serialNumber", [ serial ]);
      ]
  in
  let must = function Ok x -> x | Error e -> failwith e in
  let must_apply b op = ignore (must (Backend.apply b op)) in
  let backend_a = Backend.create () in
  must
    (Backend.add_context backend_a
       (entry "o=xyz" [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]));
  must_apply backend_a
    (Update.add (entry "c=us,o=xyz" [ ("objectclass", [ "country" ]); ("c", [ "us" ]) ]));
  must_apply backend_a (Update.add (person "fred jones" "o=xyz" "0001"));
  must_apply backend_a
    (Update.add
       (entry "ou=research,c=us,o=xyz"
          [
            ("objectclass", [ "referral" ]);
            ("ref",
             [ Referral.make ~host:"hostB" ~dn:(Dn.of_string_exn "ou=research,c=us,o=xyz") () ]);
          ]));
  must_apply backend_a
    (Update.add
       (entry "c=in,o=xyz"
          [
            ("objectclass", [ "referral" ]);
            ("ref", [ Referral.make ~host:"hostC" ~dn:(Dn.of_string_exn "c=in,o=xyz") () ]);
          ]));
  let backend_b = Backend.create () in
  must
    (Backend.add_context backend_b
       (entry "ou=research,c=us,o=xyz"
          [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "research" ]) ]));
  must_apply backend_b (Update.add (person "john doe" "ou=research,c=us,o=xyz" "0456"));
  must_apply backend_b (Update.add (person "carl miller" "ou=research,c=us,o=xyz" "0457"));
  let backend_c = Backend.create () in
  must
    (Backend.add_context backend_c
       (entry "c=in,o=xyz" [ ("objectclass", [ "country" ]); ("c", [ "in" ]) ]));
  must_apply backend_c (Update.add (person "asha" "c=in,o=xyz" "0789"));
  let net = Network.create () in
  let url_a = Referral.make ~host:"hostA" () in
  (* Referral PDUs are counted where the servers send them. *)
  let referral_pdus = ref 0 in
  let add name handler =
    Network.add_handler net ~name (fun q ->
        let resp = handler q in
        (match resp with
        | Server.Referral _ -> incr referral_pdus
        | Server.Entries r -> referral_pdus := !referral_pdus + List.length r.references
        | Server.Failure _ -> ());
        resp)
  in
  add "hostA" (Server.handler backend_a);
  add "hostB" (Server.handler ~default_referral:url_a backend_b);
  add "hostC" (Server.handler ~default_referral:url_a backend_c);
  let q = Query.make ~base:(Dn.of_string_exn "o=xyz") Filter.tt in
  Network.reset_stats net;
  let entries =
    match Network.search net ~from:"hostB" q with
    | Ok entries -> List.length entries
    | Error e -> failwith e
  in
  let stats = Network.stats net in
  (* The same search served entirely by one replica: one round trip. *)
  let rows =
    [
      [ "distributed (referrals)"; string_of_int stats.Network.sync_rpcs;
        string_of_int entries; string_of_int !referral_pdus ];
      [ "single replica (no referrals)"; "1"; string_of_int entries; "0" ];
    ]
  in
  Report.make ~title:"Figure 2: distributed operation processing"
    ~notes:
      [
        "paper: four round trips between client and servers for one request";
        "the referral mechanism makes distributed LDAP operations slow";
      ]
    ~columns:[ "deployment"; "round trips"; "entries"; "referral PDUs" ] ~rows ()

(* --- Figure 3 --------------------------------------------------------- *)

let figure3 () =
  let backend = Backend.create ~indexed:[ "departmentnumber" ] () in
  (match
     Backend.add_context backend
       (Entry.make (Dn.of_string_exn "o=xyz")
          [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ])
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let apply op =
    match Backend.apply backend op with Ok _ -> () | Error e -> failwith e
  in
  let person name dept =
    Entry.make
      (Dn.of_string_exn (Printf.sprintf "cn=%s,o=xyz" name))
      [
        ("objectclass", [ "inetOrgPerson" ]); ("cn", [ name ]); ("sn", [ name ]);
        ("departmentNumber", [ dept ]);
      ]
  in
  let dn name = Dn.of_string_exn (Printf.sprintf "cn=%s,o=xyz" name) in
  apply (Update.add (person "e1" "7"));
  apply (Update.add (person "e2" "7"));
  apply (Update.add (person "e3" "7"));
  let master = Resync.Master.create backend in
  (* One network for the whole session: the polls and the persistent
     connection cross the same transport. *)
  let net = Network.create () in
  let transport = Resync.Transport.create net in
  Resync.Transport.add_master transport ~name:"master" master;
  let query =
    Query.make ~base:(Dn.of_string_exn "o=xyz")
      (Filter.of_string_exn "(departmentNumber=7)")
  in
  let consumer = Resync.Consumer.create query in
  let rows = ref [] in
  let record step reply =
    let actions =
      String.concat ", "
        (List.map
           (fun a ->
             Printf.sprintf "%s %s" (Resync.Action.kind_name a)
               (Dn.to_string (Resync.Action.target a)))
           reply.Resync.Protocol.actions)
    in
    rows := [ step; actions; string_of_int (Resync.Consumer.size consumer) ] :: !rows
  in
  let poll step =
    match Resync.Consumer.sync_over consumer transport ~host:"master" with
    | Ok outcome -> record step outcome.Resync.Consumer.reply
    | Error e -> failwith (Resync.Consumer.sync_error_to_string e)
  in
  (* Poll 1: initial content E1 E2 E3. *)
  poll "S, (poll, null)";
  (* Interval: E4 appears (A), E1 and E2 leave (M out / D), E3 changes (M). *)
  apply (Update.add (person "e4" "7"));
  apply (Update.modify (dn "e1") [ Update.replace_values "departmentNumber" [ "9" ] ]);
  apply (Update.delete (dn "e2"));
  apply (Update.modify (dn "e3") [ Update.replace_values "mail" [ "e3@xyz.com" ] ]);
  poll "S, (poll, cookie)";
  (* Persistent phase: E3 renamed to E5 (R): delete + add pushed live
     through the transport's connection handle, delivered once the
     network's engine runs. *)
  let pushed = ref [] in
  (match
     Resync.Consumer.connect_persist consumer transport ~host:"master"
       ~observe:(fun a -> pushed := a :: !pushed)
   with
  | Ok _ -> ()
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  (match Dn.rdn_of_string "cn=e5" with
  | Ok rdn -> apply (Update.modify_dn (dn "e3") rdn)
  | Error e -> failwith e);
  Ldap_sim.Engine.run (Network.engine net);
  let pushed = List.rev !pushed in
  rows :=
    [
      "S, (persist, cookie1)";
      String.concat ", "
        (List.map
           (fun a ->
             Printf.sprintf "%s %s" (Resync.Action.kind_name a)
               (Dn.to_string (Resync.Action.target a)))
           pushed);
      string_of_int (Resync.Consumer.size consumer);
    ]
    :: !rows;
  (match Resync.Consumer.cookie consumer with
  | Some c -> Resync.Server.abandon (Resync.Master.server master) ~cookie:c
  | None -> ());
  Report.make ~title:"Figure 3: an example ReSync session"
    ~notes:
      [
        "paper: poll(null) sends initial content; poll(cookie) replays session";
        "history; a rename inside the content is delete(old)+add(new)";
      ]
    ~columns:[ "request"; "server actions"; "replica entries" ]
    ~rows:(List.rev !rows) ()

(* --- Figure 4 --------------------------------------------------------- *)

let hit_ratio stats = Replication.Stats.hit_ratio stats

let figure4 ?(fractions = [ 0.01; 0.02; 0.05; 0.10; 0.20; 0.35; 0.50 ])
    ?(length = 16_000) (scenario : Scenario.t) =
  let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only length 101)
  in
  let train, eval = split_halves items in
  let country_roots =
    Array.init
      (Dirgen.Enterprise.config scenario.Scenario.enterprise).Dirgen.Enterprise.countries
      (Dirgen.Enterprise.country_dn scenario.Scenario.enterprise)
  in
  let points =
    List.map
      (fun fraction ->
        let budget = int_of_float (fraction *. float_of_int persons) in
        (* Filter-based: static generalized prefix filters. *)
        let replica = Scenario.replica scenario in
        let filters =
          Scenario.select_static scenario ~rules:[ serial_rule ] ~train ~budget
        in
        (match Scenario.install_static replica filters with
        | Ok () -> ()
        | Error e -> failwith e);
        Scenario.drive_filter scenario replica Scenario.no_updates eval;
        let f_hit = hit_ratio (Replication.Filter_replica.stats replica) in
        let f_size = Replication.Filter_replica.size_entries replica in
        List.iter (Replication.Filter_replica.remove_filter replica)
          (Replication.Filter_replica.stored_filters replica);
        (* Subtree-based: country subtrees, evaluated on scoped queries. *)
        let subtrees = Scenario.choose_subtrees scenario ~roots:country_roots ~train ~budget in
        let subtree =
          Replication.Subtree_replica.create scenario.Scenario.transport
            ~master_host:Scenario.master_host ~subtrees
        in
        Scenario.drive_subtree scenario subtree Scenario.no_updates eval;
        let s_hit = hit_ratio (Replication.Subtree_replica.stats subtree) in
        let s_size = Replication.Subtree_replica.size_entries subtree in
        (fraction, f_size, f_hit, s_size, s_hit))
      fractions
  in
  let rows =
    List.map
      (fun (fraction, f_size, f_hit, s_size, s_hit) ->
        [
          Report.fmt_pct fraction;
          string_of_int f_size;
          Report.fmt_float f_hit;
          string_of_int s_size;
          Report.fmt_float s_hit;
        ])
      points
  in
  let chart =
    Plot.render ~y_max:1.0
      ~x_labels:(List.map (fun (fr, _, _, _, _) -> Report.fmt_pct fr) points)
      ~series:
        [
          ("filter-based", List.map (fun (_, _, h, _, _) -> h) points);
          ("subtree-based", List.map (fun (_, _, _, _, h) -> h) points);
        ]
      ()
  in
  Report.make ~title:"Figure 4: hit ratio vs replica size (serialNumber query)"
    ~notes:
      [
        "paper: filter-based reaches hit ratio 0.5 with <10% of person entries;";
        "subtree replicas cannot selectively replicate a country's employees";
      ]
    ~appendix:chart
    ~columns:
      [ "size budget"; "filter entries"; "filter hit"; "subtree entries"; "subtree hit" ]
    ~rows ()

(* --- Figure 5 --------------------------------------------------------- *)

let figure5 ?(fractions = [ 0.05; 0.10; 0.20; 0.35; 0.50 ])
    ?(intervals = [ 10_000; 6_000 ]) ?(length = 30_000) (scenario : Scenario.t) =
  let dept_total =
    Array.length (Dirgen.Enterprise.dept_numbers scenario.Scenario.enterprise)
  in
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (dept_only length 202)
  in
  let train, _ = split_halves items in
  let division_roots =
    Array.init
      (Dirgen.Enterprise.config scenario.Scenario.enterprise).Dirgen.Enterprise.divisions
      (Dirgen.Enterprise.division_dn scenario.Scenario.enterprise)
  in
  let points =
    List.map
      (fun fraction ->
        let budget = max 1 (int_of_float (fraction *. float_of_int dept_total)) in
        let dynamic interval =
          let replica = Scenario.replica scenario in
          let controller = revolutions ~interval ~budget replica in
          (* Warm up through the first revolution, then measure the
             adapted replica. *)
          let warmup = min interval (Array.length items / 2) in
          Scenario.drive_filter scenario replica ~controller Scenario.no_updates
            (Array.sub items 0 warmup);
          Replication.Stats.reset (Replication.Filter_replica.stats replica);
          Scenario.drive_filter scenario replica ~controller Scenario.no_updates
            (Array.sub items warmup (Array.length items - warmup));
          check_installs controller;
          let h = hit_ratio (Replication.Filter_replica.stats replica) in
          List.iter (Replication.Filter_replica.remove_filter replica)
            (Replication.Filter_replica.stored_filters replica);
          h
        in
        let dynamic_ratios = List.map dynamic intervals in
        let subtrees =
          Scenario.choose_subtrees scenario ~roots:division_roots ~train ~budget
        in
        let subtree =
          Replication.Subtree_replica.create scenario.Scenario.transport
            ~master_host:Scenario.master_host ~subtrees
        in
        Scenario.drive_subtree scenario subtree Scenario.no_updates items;
        let s_hit = hit_ratio (Replication.Subtree_replica.stats subtree) in
        (fraction, dynamic_ratios, s_hit))
      fractions
  in
  let rows =
    List.map
      (fun (fraction, dynamic_ratios, s_hit) ->
        (Report.fmt_pct fraction :: List.map Report.fmt_float dynamic_ratios)
        @ [ Report.fmt_float s_hit ])
      points
  in
  let interval_cols = List.map (fun r -> Printf.sprintf "filter R=%d" r) intervals in
  let chart =
    Plot.render ~y_max:1.0
      ~x_labels:(List.map (fun (fr, _, _) -> Report.fmt_pct fr) points)
      ~series:
        (List.mapi
           (fun i name ->
             (name, List.map (fun (_, ratios, _) -> List.nth ratios i) points))
           interval_cols
        @ [ ("subtree", List.map (fun (_, _, s) -> s) points) ])
      ()
  in
  Report.make ~title:"Figure 5: hit ratio vs replica size (department query)"
    ~notes:
      [
        "paper: shrinking the revolution interval (10000 -> 6000 queries) raises";
        "hit ratio at equal size; subtree replicas store all or none of a division";
      ]
    ~appendix:chart
    ~columns:(("size budget" :: interval_cols) @ [ "subtree" ])
    ~rows ()

(* --- Figure 6 --------------------------------------------------------- *)

let figure6 ?(config = Dirgen.Enterprise.default_config)
    ?(fractions = [ 0.02; 0.05; 0.10; 0.15; 0.25; 0.40 ]) ?(length = 10_000) () =
  let drive =
    { Scenario.queries_between_syncs = 250; Scenario.updates_per_query = 0.30 }
  in
  let filter_point fraction =
    (* Fresh directory per point: the update stream mutates it. *)
    let scenario = Scenario.setup ~config () in
    let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
    let budget = int_of_float (fraction *. float_of_int persons) in
    let items =
      Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only length 303)
    in
    let train, eval = split_halves items in
    let replica = Scenario.replica scenario in
    let filters =
      Scenario.select_static scenario ~rules:[ serial_rule ] ~train ~budget
    in
    (match Scenario.install_static replica filters with
    | Ok () -> ()
    | Error e -> failwith e);
    let stream =
      Dirgen.Update_stream.create scenario.Scenario.enterprise
        Dirgen.Update_stream.default_config
    in
    (* Initial fetch is not update traffic: count only the sync phase. *)
    let stats = Replication.Filter_replica.stats replica in
    stats.Replication.Stats.fetch_entries <- 0;
    Scenario.drive_filter scenario replica ~stream drive eval;
    let size = Replication.Filter_replica.size_entries replica in
    (size, hit_ratio stats, stats.Replication.Stats.sync_entries)
  in
  let subtree_point fraction =
    let scenario = Scenario.setup ~config () in
    let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
    let budget = int_of_float (fraction *. float_of_int persons) in
    let country_roots =
      Array.init
        (Dirgen.Enterprise.config scenario.Scenario.enterprise).Dirgen.Enterprise.countries
        (Dirgen.Enterprise.country_dn scenario.Scenario.enterprise)
    in
    let items =
      Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only length 303)
    in
    let train, eval = split_halves items in
    let subtrees = Scenario.choose_subtrees scenario ~roots:country_roots ~train ~budget in
    let subtree =
      Replication.Subtree_replica.create scenario.Scenario.transport
        ~master_host:Scenario.master_host ~subtrees
    in
    let stream =
      Dirgen.Update_stream.create scenario.Scenario.enterprise
        Dirgen.Update_stream.default_config
    in
    let stats = Replication.Subtree_replica.stats subtree in
    stats.Replication.Stats.fetch_entries <- 0;
    Scenario.drive_subtree scenario subtree ~stream drive eval;
    let size = Replication.Subtree_replica.size_entries subtree in
    (size, hit_ratio stats, stats.Replication.Stats.sync_entries)
  in
  let filter_points = List.map filter_point fractions in
  let subtree_points = List.map subtree_point fractions in
  (* Pair the two models at comparable hit ratios, as the paper plots. *)
  let targets = [ 0.25; 0.40; 0.55 ] in
  let pick points target =
    match List.find_opt (fun (_, hit, _) -> hit >= target) points with
    | Some p -> p
    | None -> List.nth points (List.length points - 1)
  in
  let rows =
    List.map
      (fun target ->
        let f_size, f_hit, f_traffic = pick filter_points target in
        let s_size, s_hit, s_traffic = pick subtree_points target in
        [
          Report.fmt_float target;
          string_of_int f_size;
          Report.fmt_float f_hit;
          string_of_int f_traffic;
          string_of_int s_size;
          Report.fmt_float s_hit;
          string_of_int s_traffic;
        ])
      targets
  in
  Report.make ~title:"Figure 6: update traffic vs hit ratio (serialNumber query)"
    ~notes:
      [
        "paper: for the same hit ratio, subtree replicas store many more entries";
        "and therefore receive far more update traffic than ReSync filter replicas";
      ]
    ~columns:
      [ "target hit"; "filter entries"; "filter hit"; "filter traffic";
        "subtree entries"; "subtree hit"; "subtree traffic" ]
    ~rows ()

(* --- Figure 7 --------------------------------------------------------- *)

let figure7 ?(config = Dirgen.Enterprise.default_config)
    ?(fractions = [ 0.10; 0.20; 0.35; 0.50 ]) ?(intervals = [ 10_000; 6_000 ])
    ?(length = 30_000) () =
  let drive =
    { Scenario.queries_between_syncs = 1_000; Scenario.updates_per_query = 0.05 }
  in
  (* Department entries rarely change: the stream is person-dominated
     with the default rare department modifications. *)
  let rows =
    List.concat_map
      (fun fraction ->
        List.map
          (fun interval ->
            let scenario = Scenario.setup ~config () in
            let dept_total =
              Array.length (Dirgen.Enterprise.dept_numbers scenario.Scenario.enterprise)
            in
            let budget = max 1 (int_of_float (fraction *. float_of_int dept_total)) in
            let items =
              Dirgen.Workload.generate scenario.Scenario.enterprise (dept_only length 404)
            in
            let replica = Scenario.replica scenario in
            let controller = revolutions ~interval ~budget replica in
            let stream =
              Dirgen.Update_stream.create scenario.Scenario.enterprise
                Dirgen.Update_stream.default_config
            in
            let stats = Replication.Filter_replica.stats replica in
            let warmup = min interval (Array.length items / 2) in
            Scenario.drive_filter scenario replica ~controller ~stream drive
              (Array.sub items 0 warmup);
            Replication.Stats.reset stats;
            Scenario.drive_filter scenario replica ~controller ~stream drive
              (Array.sub items warmup (Array.length items - warmup));
            check_installs controller;
            [
              Report.fmt_pct fraction;
              string_of_int interval;
              Report.fmt_float (hit_ratio stats);
              string_of_int stats.Replication.Stats.sync_entries;
              string_of_int stats.Replication.Stats.fetch_entries;
              string_of_int (Replication.Stats.total_update_entries stats);
            ])
          intervals)
      fractions
  in
  Report.make ~title:"Figure 7: update traffic vs hit ratio (department query)"
    ~notes:
      [
        "paper: department entries change rarely, so subtree traffic is negligible;";
        "filter traffic is dominated by revolution fetches and grows as R shrinks";
      ]
    ~columns:
      [ "size budget"; "R"; "hit ratio"; "resync entries"; "fetch entries"; "total" ]
    ~rows ()

(* --- Figures 8 and 9 -------------------------------------------------- *)

let cache_vs_generalized ~title ~notes ~workload ~rules ?(filter_counts = [ 10; 25; 50; 100; 200; 400 ])
    (scenario : Scenario.t) =
  let items = Dirgen.Workload.generate scenario.Scenario.enterprise workload in
  let train, eval = split_halves items in
  let run_user_only count =
    let replica =
      Replication.Filter_replica.create_over ~cache_capacity:count
        scenario.Scenario.transport ~master_host:Scenario.master_host
    in
    (* Warm the cache on the training half, then measure. *)
    Scenario.drive_filter scenario replica ~cache_misses:true Scenario.no_updates train;
    Replication.Stats.reset (Replication.Filter_replica.stats replica);
    Scenario.drive_filter scenario replica ~cache_misses:true Scenario.no_updates eval;
    hit_ratio (Replication.Filter_replica.stats replica)
  in
  let run_generalized_only count =
    let replica = Scenario.replica scenario in
    (* min_hits 3: only clearly beneficial generalizations, so the
       curve saturates once the workload's semantic locality is
       exhausted — as in the paper. *)
    let filters =
      Scenario.select_static ~max_filters:count ~min_hits:3 scenario ~rules ~train
        ~budget:max_int
    in
    (match Scenario.install_static replica filters with
    | Ok () -> ()
    | Error e -> failwith e);
    Scenario.drive_filter scenario replica Scenario.no_updates eval;
    let h = hit_ratio (Replication.Filter_replica.stats replica) in
    List.iter (Replication.Filter_replica.remove_filter replica)
      (Replication.Filter_replica.stored_filters replica);
    h
  in
  let run_both count =
    let replica_filters =
      Scenario.select_static ~max_filters:(count / 2) ~min_hits:3 scenario ~rules
        ~train ~budget:max_int
    in
    (* Whatever the generalized set does not use goes to the window
       cache of recent user queries. *)
    let cache = max 1 (count - List.length replica_filters) in
    let replica =
      Replication.Filter_replica.create_over ~cache_capacity:cache
        scenario.Scenario.transport ~master_host:Scenario.master_host
    in
    let filters = replica_filters in
    (match Scenario.install_static replica filters with
    | Ok () -> ()
    | Error e -> failwith e);
    Scenario.drive_filter scenario replica ~cache_misses:true Scenario.no_updates train;
    Replication.Stats.reset (Replication.Filter_replica.stats replica);
    Scenario.drive_filter scenario replica ~cache_misses:true Scenario.no_updates eval;
    let h = hit_ratio (Replication.Filter_replica.stats replica) in
    List.iter (Replication.Filter_replica.remove_filter replica)
      (Replication.Filter_replica.stored_filters replica);
    h
  in
  let points =
    List.map
      (fun count ->
        (count, run_user_only count, run_generalized_only count, run_both count))
      filter_counts
  in
  let rows =
    List.map
      (fun (count, u, g, b) ->
        [
          string_of_int count;
          Report.fmt_float u;
          Report.fmt_float g;
          Report.fmt_float b;
        ])
      points
  in
  let chart =
    Plot.render ~y_max:1.0
      ~x_labels:(List.map (fun (c, _, _, _) -> string_of_int c) points)
      ~series:
        [
          ("user queries only", List.map (fun (_, u, _, _) -> u) points);
          ("generalized only", List.map (fun (_, _, g, _) -> g) points);
          ("both", List.map (fun (_, _, _, b) -> b) points);
        ]
      ()
  in
  Report.make ~title ~notes ~appendix:chart
    ~columns:[ "# filters"; "user queries only"; "generalized only"; "both" ]
    ~rows ()

let figure8 ?filter_counts ?(length = 16_000) scenario =
  cache_vs_generalized
    ~title:"Figure 8: hit ratio vs number of stored filters (serialNumber query)"
    ~notes:
      [
        "paper: ~50 cached user queries give ~0.2 hit ratio, saturating after ~100;";
        "generalized + cached queries reach ~0.5 with ~200 stored filters";
      ]
    ~workload:(serial_only length 505) ~rules:[ serial_rule ] ?filter_counts scenario

let figure9 ?filter_counts ?(length = 16_000) scenario =
  cache_vs_generalized
    ~title:"Figure 9: hit ratio vs number of stored filters (mail query)"
    ~notes:
      [
        "paper: the mail local part is not organized, so generalized filters cannot";
        "describe the access pattern; only temporal locality (caching) helps";
      ]
    ~workload:(mail_only length 606) ~rules:[ mail_rule ] ?filter_counts scenario

(* --- Section 3.2: per-object-type consistency classes ------------------ *)

let consistency_classes ?(updates = 4_000) () =
  (* A replica holding both person filters (high update rate, needs
     freshness) and department filters (slow-changing) can give each
     class its own refresh rate; a subtree replica mixing both object
     types must apply the most stringent requirement to everything
     (section 3.2).  Rare refreshes also coalesce repeated
     modifications of the same entry into one transfer. *)
  let scenario =
    Scenario.setup
      ~config:{ Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 6_000 }
      ()
  in
  let root = Dirgen.Enterprise.root_dn scenario.Scenario.enterprise in
  let person_filters =
    let items =
      Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only 4_000 1212)
    in
    Scenario.select_static ~max_filters:10 scenario ~rules:[ serial_rule ] ~train:items
      ~budget:max_int
  in
  let division_filters =
    List.init 8 (fun d ->
        Query.make ~base:root
          (Filter.of_string_exn
             (Printf.sprintf "(&(divisionnumber=%02d)(departmentnumber=*))" d)))
  in
  let slow q = List.exists (Query.equal q) division_filters in
  let stream_config =
    (* More department churn than the default so the class difference
       is visible. *)
    { Dirgen.Update_stream.default_config with
      Dirgen.Update_stream.modify_dept_entry_w = 0.15;
      modify_phone_w = 0.40 }
  in
  let run ~per_class =
    let replica = Scenario.replica scenario in
    (match
       Scenario.install_static replica (person_filters @ division_filters)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    let stats = Replication.Filter_replica.stats replica in
    Replication.Stats.reset stats;
    let stream =
      Dirgen.Update_stream.create scenario.Scenario.enterprise stream_config
    in
    let polls = ref 0 in
    let sync_class pred =
      Replication.Filter_replica.sync_where replica (fun q ->
          let selected = pred q in
          if selected then incr polls;
          selected)
    in
    let rounds = 10 in
    for round = 1 to rounds do
      Dirgen.Update_stream.steps stream (updates / rounds);
      if per_class then begin
        sync_class (fun q -> not (slow q));
        if round = rounds then sync_class slow
      end
      else sync_class (fun _ -> true)
    done;
    (stats.Replication.Stats.sync_entries, !polls)
  in
  let uniform_entries, uniform_polls = run ~per_class:false in
  let class_entries, class_polls = run ~per_class:true in
  Report.make ~title:"Section 3.2: per-object-type consistency classes"
    ~notes:
      [
        "paper: a filter replica can give each object type its own consistency";
        "level; a subtree replica applies the most stringent one to everything";
      ]
    ~columns:[ "sync policy"; "entries transferred"; "poll requests" ]
    ~rows:
      [
        [ "uniform (every filter, every round)"; string_of_int uniform_entries;
          string_of_int uniform_polls ];
        [ "per class (departments 10x rarer)"; string_of_int class_entries;
          string_of_int class_polls ];
      ]
    ()

(* --- Section 5.2 ablation --------------------------------------------- *)

let resync_ablation ?(updates = 4_000) ?(filters = 20) () =
  let scenario =
    Scenario.setup
      ~config:
        { Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 6_000 }
      ()
  in
  let backend = Dirgen.Enterprise.backend scenario.Scenario.enterprise in
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only 4_000 707)
  in
  let queries =
    Scenario.select_static ~max_filters:filters scenario ~rules:[ serial_rule ]
      ~train:items ~budget:max_int
  in
  let strategies =
    [
      ("session history", Resync.Master.Session_history);
      ("changelog", Resync.Master.Changelog);
      ("tombstone", Resync.Master.Tombstone);
    ]
  in
  (* Each strategy's master joins the scenario's transport under its
     own host name. *)
  let poll host c =
    match Resync.Consumer.sync_over c scenario.Scenario.transport ~host with
    | Ok outcome -> outcome.Resync.Consumer.reply
    | Error e -> failwith (Resync.Consumer.sync_error_to_string e)
  in
  let masters =
    List.map
      (fun (name, strategy) ->
        let master = Resync.Master.create ~strategy backend in
        let host = "master/" ^ name in
        Resync.Transport.add_master scenario.Scenario.transport ~name:host master;
        let consumers = List.map Resync.Consumer.create queries in
        List.iter (fun c -> ignore (poll host c)) consumers;
        (name, (master, host), consumers))
      strategies
  in
  let stream =
    Dirgen.Update_stream.create scenario.Scenario.enterprise
      Dirgen.Update_stream.default_config
  in
  let totals = Hashtbl.create 8 in
  let peaks = Hashtbl.create 8 in
  let record name entries actions =
    let e, a = Option.value ~default:(0, 0) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (e + entries, a + actions)
  in
  let rounds = 4 in
  for _ = 1 to rounds do
    Dirgen.Update_stream.steps stream (updates / rounds);
    List.iter
      (fun (name, (master, host), consumers) ->
        let peak = Resync.Master.history_size master in
        let old = Option.value ~default:0 (Hashtbl.find_opt peaks name) in
        Hashtbl.replace peaks name (max old peak);
        List.iter
          (fun c ->
            let reply = poll host c in
            record name
              (Resync.Protocol.entries_cost reply)
              (Resync.Protocol.actions_count reply))
          consumers)
      masters
  done;
  (* Convergence check: every consumer matches the master's content. *)
  List.iter
    (fun (name, _, consumers) ->
      List.iter
        (fun c ->
          let expected =
            Resync.Content.current_dns backend (Resync.Consumer.query c)
          in
          if not (Dn.Set.equal expected (Resync.Consumer.dns c)) then
            failwith (name ^ ": consumer diverged"))
        consumers)
    masters;
  let rows =
    List.map
      (fun (name, _, _) ->
        let entries, actions = Option.value ~default:(0, 0) (Hashtbl.find_opt totals name) in
        let peak = Option.value ~default:0 (Hashtbl.find_opt peaks name) in
        [ name; string_of_int entries; string_of_int actions; string_of_int peak ])
      masters
  in
  Report.make ~title:"Section 5.2: history mechanism ablation"
    ~notes:
      [
        "paper: changelogs/tombstones cannot classify deletes or modify-outs, so";
        "they transmit extra DNs; session history sends the minimal update set";
      ]
    ~columns:[ "history"; "entries sent"; "actions sent"; "history size (peak)" ]
    ~rows ()

(* --- Section 5: synchronization over a lossy network -------------------- *)

let lossy_sync ~updates =
  let rates = [ 0.0; 0.05; 0.15; 0.30 ] and employees = 3_000 and filters = 8 in
  let seed = 4242 in
  let rows =
    List.map
      (fun rate ->
        (* Fresh directory per rate: the update stream mutates the
           master, and each rate must see the same evolution. *)
        let scenario =
          Scenario.setup
            ~config:
              { Dirgen.Enterprise.default_config with
                Dirgen.Enterprise.employees }
            ()
        in
        let backend = Dirgen.Enterprise.backend scenario.Scenario.enterprise in
        let master = scenario.Scenario.master in
        let items =
          Dirgen.Workload.generate scenario.Scenario.enterprise
            (serial_only 2_000 (seed + 1))
        in
        let queries =
          Scenario.select_static ~max_filters:filters scenario
            ~rules:[ serial_rule ] ~train:items ~budget:max_int
        in
        let prng = Dirgen.Prng.create (seed + int_of_float (rate *. 1000.)) in
        let faults =
          Network.Faults.create ~drop_request:(rate /. 2.)
            ~drop_reply:(rate /. 2.)
            ~roll:(fun () -> Dirgen.Prng.float prng 1.0)
            ()
        in
        (* A lossy transport over the scenario's network: its
           exchanges share the scenario's clock and byte counters. *)
        let net = scenario.Scenario.net in
        let transport = Resync.Transport.create ~faults net in
        Resync.Transport.add_master transport ~name:Scenario.master_host master;
        let polls = ref 0
        and retries = ref 0
        and resyncs = ref 0
        and failed = ref 0 in
        let consumers = List.map Resync.Consumer.create queries in
        let poll c =
          incr polls;
          match Resync.Consumer.sync_over c transport ~host:Scenario.master_host with
          | Ok o ->
              retries := !retries + (o.Resync.Consumer.attempts - 1);
              if o.Resync.Consumer.resynced then incr resyncs
          | Error (Resync.Consumer.Exhausted _) ->
              (* Stale until a later round gets through. *)
              incr failed
          | Error (Resync.Consumer.Rejected msg) -> failwith msg
        in
        List.iter poll consumers;
        let stream =
          Dirgen.Update_stream.create scenario.Scenario.enterprise
            Dirgen.Update_stream.default_config
        in
        let rounds = 5 in
        for round = 1 to rounds do
          Dirgen.Update_stream.steps stream (updates / rounds);
          (* Halfway through, the master drops every session (admin
             expiry): consumers must resume via degraded resync. *)
          if round = 3 then Resync.Server.expire (Resync.Master.server master) ~idle_limit:0;
          List.iter poll consumers
        done;
        (* Quiesce over the scenario's clean transport so convergence
           is checkable even at high loss; the lossy rounds above did
           the damage. *)
        List.iter
          (fun c ->
            match
              Resync.Consumer.sync_over c scenario.Scenario.transport
                ~host:Scenario.master_host
            with
            | Ok _ -> ()
            | Error e -> failwith (Resync.Consumer.sync_error_to_string e))
          consumers;
        let converged =
          List.for_all
            (fun c ->
              Dn.Set.equal
                (Resync.Content.current_dns backend (Resync.Consumer.query c))
                (Resync.Consumer.dns c))
            consumers
        in
        [
          Report.fmt_float rate;
          string_of_int !polls;
          string_of_int !retries;
          string_of_int !resyncs;
          string_of_int !failed;
          string_of_int (Network.stats net).Network.sync_bytes;
          (if converged then "yes" else "NO");
        ])
      rates
  in
  Report.make ~title:"Section 5: ReSync over a lossy network"
    ~notes:
      [
        "drops are split evenly between requests and replies; a lost reply";
        "costs a degraded resync on the retry (the master already advanced);";
        "retry budget 4 with exponential backoff, failures retried next round";
      ]
    ~columns:
      [
        "drop rate"; "polls"; "retries"; "resyncs"; "failed polls";
        "sync bytes"; "converged";
      ]
    ~rows ()

(* --- Section 7.4 ------------------------------------------------------- *)

let processing_overhead ?(filter_counts = [ 50; 100; 200; 400; 800 ])
    ?(length = 4_000) (scenario : Scenario.t) =
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only length 808)
  in
  let train, eval = split_halves items in
  let rows =
    List.map
      (fun count ->
        let replica = Scenario.replica scenario in
        let filters =
          Scenario.select_static ~max_filters:count ~min_hits:1 scenario
            ~rules:[ serial_rule ] ~train ~budget:max_int
        in
        (match Scenario.install_static replica filters with
        | Ok () -> ()
        | Error e -> failwith e);
        let stored = Replication.Filter_replica.filter_count replica in
        Scenario.drive_filter scenario replica Scenario.no_updates eval;
        let comparisons = Replication.Filter_replica.comparisons replica in
        let per_query =
          float_of_int comparisons /. float_of_int (Array.length eval)
        in
        let hit = hit_ratio (Replication.Filter_replica.stats replica) in
        List.iter (Replication.Filter_replica.remove_filter replica)
          (Replication.Filter_replica.stored_filters replica);
        [
          string_of_int count;
          string_of_int stored;
          Report.fmt_float per_query;
          Report.fmt_float hit;
        ])
      filter_counts
  in
  Report.make ~title:"Section 7.4: query processing overhead"
    ~notes:
      [
        "paper: overhead is proportional to the number of stored filters; with";
        "template containment each check is a simple assertion-value comparison";
      ]
    ~columns:[ "requested filters"; "stored"; "comparisons/query"; "hit ratio" ]
    ~rows ()

(* --- Section 7.2(c): location queries ---------------------------------- *)

let location_replication ?(length = 4_000) (scenario : Scenario.t) =
  (* The location tree is small and hot: replicating it entirely as
     the single presence filter on [location] guarantees a hit ratio
     of 1 for this query type at a tiny fraction of the replica size. *)
  let workload =
    {
      Dirgen.Workload.default_config with
      Dirgen.Workload.length;
      seed = 909;
      serial_pct = 0.0;
      mail_pct = 0.0;
      dept_pct = 0.0;
      location_pct = 1.0;
    }
  in
  let items = Dirgen.Workload.generate scenario.Scenario.enterprise workload in
  let replica = Scenario.replica scenario in
  let root = Dirgen.Enterprise.root_dn scenario.Scenario.enterprise in
  let stored = Query.make ~base:root (Filter.of_string_exn "(location=*)") in
  (match Replication.Filter_replica.install_filter replica stored with
  | Ok () -> ()
  | Error e -> failwith e);
  Scenario.drive_filter scenario replica Scenario.no_updates items;
  let stats = Replication.Filter_replica.stats replica in
  let size = Replication.Filter_replica.size_entries replica in
  let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
  let rows =
    [
      [
        "(location=*) replicated";
        string_of_int size;
        Report.fmt_pct (float_of_int size /. float_of_int persons);
        Report.fmt_float (hit_ratio stats);
      ];
    ]
  in
  List.iter (Replication.Filter_replica.remove_filter replica)
    (Replication.Filter_replica.stored_filters replica);
  Report.make ~title:"Section 7.2(c): replicating the location tree"
    ~notes:
      [
        "paper: location entries are few but hot; replicating the whole tree";
        "gives hit ratio 1 for this query type at a very small replica cost";
      ]
    ~columns:[ "configuration"; "entries"; "share of persons"; "hit ratio" ]
    ~rows ()

(* --- Section 3.1.1: minimally directory-enabled applications ----------- *)

let root_base_ablation ?(length = 6_000) (scenario : Scenario.t) =
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (serial_only length 1010)
  in
  let train, eval = split_halves items in
  let persons = Dirgen.Enterprise.person_count scenario.Scenario.enterprise in
  let budget = persons * 3 / 10 in
  let country_roots =
    Array.init
      (Dirgen.Enterprise.config scenario.Scenario.enterprise).Dirgen.Enterprise.countries
      (Dirgen.Enterprise.country_dn scenario.Scenario.enterprise)
  in
  let subtrees = Scenario.choose_subtrees scenario ~roots:country_roots ~train ~budget in
  let subtree =
    Replication.Subtree_replica.create scenario.Scenario.transport
      ~master_host:Scenario.master_host ~subtrees
  in
  (* Same replica, same queries - only the base differs. *)
  Array.iter
    (fun (item : Dirgen.Workload.item) ->
      ignore (Replication.Subtree_replica.answer subtree item.Dirgen.Workload.scoped))
    eval;
  let scoped_hit = hit_ratio (Replication.Subtree_replica.stats subtree) in
  Replication.Stats.reset (Replication.Subtree_replica.stats subtree);
  Array.iter
    (fun (item : Dirgen.Workload.item) ->
      ignore (Replication.Subtree_replica.answer subtree item.Dirgen.Workload.query))
    eval;
  let root_hit = hit_ratio (Replication.Subtree_replica.stats subtree) in
  (* The filter replica answers root-based queries natively. *)
  let replica = Scenario.replica scenario in
  let filters = Scenario.select_static scenario ~rules:[ serial_rule ] ~train ~budget in
  (match Scenario.install_static replica filters with
  | Ok () -> ()
  | Error e -> failwith e);
  Scenario.drive_filter scenario replica Scenario.no_updates eval;
  let filter_hit = hit_ratio (Replication.Filter_replica.stats replica) in
  List.iter (Replication.Filter_replica.remove_filter replica)
    (Replication.Filter_replica.stored_filters replica);
  Report.make ~title:"Section 3.1.1: root-based queries vs subtree replicas"
    ~notes:
      [
        "paper: minimally directory-enabled applications search from the DIT";
        "root; subtree replicas cannot possibly answer those, filter replicas can";
      ]
    ~columns:[ "replica"; "query base"; "hit ratio" ]
    ~rows:
      [
        [ "subtree (30% budget)"; "scoped to country"; Report.fmt_float scoped_hit ];
        [ "subtree (30% budget)"; "DIT root"; Report.fmt_float root_hit ];
        [ "filter (30% budget)"; "DIT root"; Report.fmt_float filter_hit ];
      ]
    ()

(* --- Section 6.2: evolutions vs periodic revolutions -------------------- *)

let evolution_ablation ?(length = 12_000) ?(interval = 2_000) () =
  let scenario = Scenario.setup () in
  let dept_total =
    Array.length (Dirgen.Enterprise.dept_numbers scenario.Scenario.enterprise)
  in
  let budget = max 1 (dept_total / 5) in
  let items =
    Dirgen.Workload.generate scenario.Scenario.enterprise (dept_only length 1111)
  in
  (* Periodic revolutions (the paper's choice for replication). *)
  let rev_replica = Scenario.replica scenario in
  let controller = revolutions ~interval ~budget rev_replica in
  Scenario.drive_filter scenario rev_replica ~controller Scenario.no_updates items;
  check_installs controller;
  let rev_stats = Replication.Filter_replica.stats rev_replica in
  (* Every revolution is a list update, including one that re-selects
     the stored set unchanged. *)
  let rev_updates =
    Adaptive.Controller.adaptation_count controller
    + Adaptive.Controller.unchanged_checks controller
  in
  (* Immediate evolutions (Kapitskaia et al. [12]). *)
  let evo_replica = Scenario.replica scenario in
  let evo =
    Adaptive.Evolution_baseline.create
      {
        Adaptive.Evolution_baseline.rules = dept_rules;
        size_budget = budget;
        ageing = 0.999;
        swap_margin = 0.2;
        include_queries = true;
      }
      evo_replica
  in
  Array.iter
    (fun (item : Dirgen.Workload.item) ->
      Adaptive.Evolution_baseline.observe evo item.Dirgen.Workload.query;
      ignore (Replication.Filter_replica.answer evo_replica item.Dirgen.Workload.query))
    items;
  let evo_stats = Replication.Filter_replica.stats evo_replica in
  Report.make ~title:"Section 6.2: periodic revolutions vs immediate evolutions"
    ~notes:
      [
        "paper: evolutions require frequent updates to the stored filter list and";
        "are thus not suitable for replication; periodic revolutions approximate";
        "them at a fraction of the reconfiguration traffic";
      ]
    ~columns:[ "algorithm"; "hit ratio"; "fetch entries"; "list updates" ]
    ~rows:
      [
        [
          Printf.sprintf "revolutions (R=%d)" interval;
          Report.fmt_float (hit_ratio rev_stats);
          string_of_int rev_stats.Replication.Stats.fetch_entries;
          string_of_int rev_updates;
        ];
        [
          "evolutions (EDBT 2000)";
          Report.fmt_float (hit_ratio evo_stats);
          string_of_int evo_stats.Replication.Stats.fetch_entries;
          string_of_int (Adaptive.Evolution_baseline.swaps evo);
        ];
      ]
    ()

(* --- The experiment table ---------------------------------------------- *)

(* Sizes shared by every experiment of one run.  The scenario is built
   on first use and shared by every experiment after it, so a run that
   needs none (fig2) never builds the directory. *)
type sizing = {
  config : Dirgen.Enterprise.config;
  scale : float;
  scenario : Scenario.t Lazy.t;
}

let length s n = int_of_float (s.scale *. float_of_int n)
let interval s r = max 1 (length s r)
let intervals s = List.map (interval s) [ 10_000; 6_000 ]

let experiments =
  let sc s = Lazy.force s.scenario in
  [
    ("table1", fun s -> table1 ~scale:s.scale (sc s));
    ("fig2", fun _ -> figure2 ());
    ("fig3", fun _ -> figure3 ());
    ("fig4", fun s -> figure4 ~length:(length s 16_000) (sc s));
    ("fig5", fun s -> figure5 ~length:(length s 30_000) ~intervals:(intervals s) (sc s));
    ("fig6", fun s -> figure6 ~config:s.config ~length:(length s 10_000) ());
    ( "fig7",
      fun s ->
        figure7 ~config:s.config ~length:(length s 30_000) ~intervals:(intervals s) () );
    ("fig8", fun s -> figure8 ~length:(length s 16_000) (sc s));
    ("fig9", fun s -> figure9 ~length:(length s 16_000) (sc s));
    ("location", fun s -> location_replication ~length:(length s 4_000) (sc s));
    ("consistency", fun _ -> consistency_classes ());
    ("rootbase", fun s -> root_base_ablation ~length:(length s 6_000) (sc s));
    ( "evolution",
      fun s -> evolution_ablation ~length:(length s 12_000) ~interval:(interval s 2_000) () );
    ("ablation", fun _ -> resync_ablation ());
    ("lossy", fun s -> lossy_sync ~updates:(max 100 (length s 2_000)));
    ("overhead", fun s -> processing_overhead (sc s));
  ]

let experiment_names = List.map fst experiments

let run ?(quick = false) names =
  let config =
    if quick then
      { Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 4_000 }
    else Dirgen.Enterprise.default_config
  in
  let s =
    {
      config;
      scale = (if quick then 0.2 else 1.0);
      scenario = lazy (Scenario.setup ~config ());
    }
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some table -> Report.print (table s)
      | None -> invalid_arg ("Figures.run: unknown experiment " ^ name))
    names

let all ?quick () = run ?quick experiment_names
