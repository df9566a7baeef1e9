(* ldapctl: command-line driver for the filter-based replication
   library.

   Subcommands:
     gen        - build a synthetic enterprise directory and print stats
     search     - run an LDAP search against a generated directory
     export     - export matching entries as LDIF
     compare    - LDAP compare against a generated directory
     contains   - check semantic containment of two queries
     condition  - show the compiled cross-template containment CNF
     workload   - generate a workload and print its distribution
     replay     - replay a saved workload trace against a filter replica
     experiment - run one of the paper's tables/figures
     store      - journal a replica, crash it, and report its recovery
     antientropy - reconcile a drifted replica by Merkle walk and report it

   The topology, sharding, scale and drift scenarios each have one
   runner, their sweep in bench/main.exe, which gates and pins them. *)

open Cmdliner
open Ldap
module C = Ldap_containment
module Dirgen = Ldap_dirgen
module Eval = Ldap_eval


(* --- Shared argument converters --------------------------------------- *)

let query_conv ~base ~filter ~scope =
  match Scope.of_string scope with
  | None -> Error (Printf.sprintf "invalid scope %S (base|one|sub)" scope)
  | Some scope -> Query.of_strings ~scope ~base filter

let employees_arg =
  let doc = "Number of employee entries in the generated directory." in
  Arg.(value & opt int 20_000 & info [ "employees"; "n" ] ~doc)

let seed_arg =
  let doc = "Deterministic seed for directory and workload generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let enterprise_config employees seed =
  { Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees; seed }

(* --- gen --------------------------------------------------------------- *)

let gen_cmd =
  let run employees seed =
    let e = Dirgen.Enterprise.build (enterprise_config employees seed) in
    let b = Dirgen.Enterprise.backend e in
    Printf.printf "directory built: %d entries total\n" (Backend.total_entries b);
    Printf.printf "  persons:   %d\n" (Dirgen.Enterprise.person_count e);
    Printf.printf "  countries: %d (target geography: %d)\n"
      (Dirgen.Enterprise.config e).Dirgen.Enterprise.countries
      (Dirgen.Enterprise.config e).Dirgen.Enterprise.target_countries;
    Printf.printf "  departments: %d\n"
      (Array.length (Dirgen.Enterprise.dept_numbers e));
    Printf.printf "  locations: %d\n"
      (Array.length (Dirgen.Enterprise.location_names e))
  in
  let doc = "Build the synthetic enterprise directory and print statistics." in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const run $ employees_arg $ seed_arg)

(* --- search ------------------------------------------------------------ *)

let search_cmd =
  let base =
    Arg.(value & opt string "o=xyz" & info [ "base"; "b" ] ~doc:"Search base DN.")
  in
  let scope =
    Arg.(value & opt string "sub" & info [ "scope"; "s" ] ~doc:"base | one | sub.")
  in
  let filter =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILTER" ~doc:"RFC 2254 filter.")
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Max entries to print.")
  in
  let sort =
    Arg.(value & opt (some string) None
         & info [ "sort" ] ~doc:"Server-side sort keys (RFC 2891), e.g. 'sn,-age'.")
  in
  let run employees seed base scope filter limit sort =
    match query_conv ~base ~filter ~scope with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok q -> (
        let keys =
          match sort with
          | None -> []
          | Some spec -> (
              match Sort_control.keys_of_string spec with
              | Ok keys -> keys
              | Error e ->
                  prerr_endline e;
                  exit 1)
        in
        let enterprise = Dirgen.Enterprise.build (enterprise_config employees seed) in
        let backend = Dirgen.Enterprise.backend enterprise in
        match Backend.search backend q with
        | Error (Backend.No_such_object dn) ->
            Printf.printf "noSuchObject: %s\n" (Dn.to_string dn)
        | Error (Backend.Base_referral { urls; _ }) ->
            Printf.printf "referral: %s\n" (String.concat ", " urls)
        | Ok { Backend.entries; references } ->
            let entries =
              if keys = [] then entries else Sort_control.sort ~keys entries
            in
            Printf.printf "%d entries (%d references)\n" (List.length entries)
              (List.length references);
            List.iteri
              (fun i e -> if i < limit then Format.printf "%a@\n@\n" Entry.pp e)
              entries)
  in
  let doc = "Search a generated directory." in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(const run $ employees_arg $ seed_arg $ base $ scope $ filter $ limit $ sort)

(* --- export -------------------------------------------------------------- *)

let export_cmd =
  let base =
    Arg.(value & opt string "o=xyz" & info [ "base"; "b" ] ~doc:"Search base DN.")
  in
  let filter =
    Arg.(value & opt string "(objectclass=*)" & info [ "filter"; "f" ] ~doc:"RFC 2254 filter.")
  in
  let run employees seed base filter =
    match query_conv ~base ~filter ~scope:"sub" with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok q -> (
        let enterprise = Dirgen.Enterprise.build (enterprise_config employees seed) in
        match Backend.search (Dirgen.Enterprise.backend enterprise) q with
        | Error _ ->
            prerr_endline "search failed";
            exit 1
        | Ok { Backend.entries; _ } -> print_string (Ldif.entries_to_string entries))
  in
  let doc = "Export matching entries of a generated directory as LDIF." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ employees_arg $ seed_arg $ base $ filter)

(* --- contains ----------------------------------------------------------- *)

let contains_cmd =
  let q1 = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Incoming filter.") in
  let q2 = Arg.(required & pos 1 (some string) None & info [] ~docv:"STORED" ~doc:"Stored filter.") in
  let base1 = Arg.(value & opt string "o=xyz" & info [ "base1" ] ~doc:"Incoming base DN.") in
  let base2 = Arg.(value & opt string "o=xyz" & info [ "base2" ] ~doc:"Stored base DN.") in
  let run f1 f2 base1 base2 =
    match (Query.of_strings ~base:base1 f1, Query.of_strings ~base:base2 f2) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok query, Ok stored ->
        let result = C.Query_containment.contained ~query ~stored in
        Printf.printf "%s\n  contained in\n%s\n=> %b\n" (Query.to_string query)
          (Query.to_string stored) result
  in
  let doc = "Decide semantic containment of one query in another (algorithm QC)." in
  Cmd.v (Cmd.info "contains" ~doc) Term.(const run $ q1 $ q2 $ base1 $ base2)

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let target = Arg.(required & pos 0 (some string) None & info [] ~docv:"DN" ~doc:"Entry DN.") in
  let attr = Arg.(required & pos 1 (some string) None & info [] ~docv:"ATTR" ~doc:"Attribute.") in
  let value = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE" ~doc:"Assertion value.") in
  let run employees seed target attr value =
    match Dn.of_string target with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok dn -> (
        let enterprise = Dirgen.Enterprise.build (enterprise_config employees seed) in
        match Backend.compare_values (Dirgen.Enterprise.backend enterprise) dn ~attr ~value with
        | Ok result -> Printf.printf "compare%s\n" (if result then "True" else "False")
        | Error e ->
            prerr_endline e;
            exit 1)
  in
  let doc = "LDAP compare operation against a generated directory." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ employees_arg $ seed_arg $ target $ attr $ value)

(* --- condition ----------------------------------------------------------- *)

let condition_cmd =
  let t1 =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"LEFT" ~doc:"Contained-side template, e.g. '(serialnumber=_)'.")
  in
  let t2 =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"RIGHT" ~doc:"Containing-side template, e.g. '(serialnumber=_*)'.")
  in
  let run left right =
    match (Template.of_string left, Template.of_string right) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok left, Ok right -> (
        match C.Symbolic.compile ~left ~right with
        | None -> print_endline "condition: (compilation infeasible; runtime check)"
        | Some cond ->
            Printf.printf "containment condition (Proposition 2 CNF):\n  %s\n"
              (C.Symbolic.to_string cond))
  in
  let doc = "Compile and print the cross-template containment condition." in
  Cmd.v (Cmd.info "condition" ~doc) Term.(const run $ t1 $ t2)

(* --- workload ------------------------------------------------------------ *)

let workload_cmd =
  let length =
    Arg.(value & opt int 20_000 & info [ "length" ] ~doc:"Number of queries.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~doc:"Write the workload as a trace file.")
  in
  let run employees seed length out =
    let enterprise = Dirgen.Enterprise.build (enterprise_config employees seed) in
    let config = { Dirgen.Workload.default_config with Dirgen.Workload.length; seed } in
    let items = Dirgen.Workload.generate enterprise config in
    (match out with
    | Some path ->
        let oc = open_out path in
        Dirgen.Trace.save oc items;
        close_out oc;
        Printf.printf "wrote %d queries to %s\n" (Array.length items) path
    | None -> ());
    List.iter
      (fun (kind, share) ->
        Printf.printf "%-14s %5.1f%%\n" (Dirgen.Workload.kind_name kind) (100.0 *. share))
      (Dirgen.Workload.mix_of items);
    print_endline "sample:";
    Array.iteri
      (fun i (item : Dirgen.Workload.item) ->
        if i < 10 then
          Printf.printf "  %s\n" (Filter.to_string (item.Dirgen.Workload.query.Query.filter :> Filter.t)))
      items
  in
  let doc = "Generate a Table 1 workload, print its mix, optionally save a trace." in
  Cmd.v (Cmd.info "workload" ~doc) Term.(const run $ employees_arg $ seed_arg $ length $ out)

(* --- replay ---------------------------------------------------------------- *)

let replay_cmd =
  let trace =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let budget_pct =
    Arg.(value & opt int 10 & info [ "budget" ] ~doc:"Replica entry budget, %% of persons.")
  in
  let cache =
    Arg.(value & opt int 100 & info [ "cache" ] ~doc:"User-query cache window size.")
  in
  let run employees seed trace budget_pct cache =
    let ic = open_in trace in
    let items =
      match Dirgen.Trace.load ic with
      | Ok items -> items
      | Error e ->
          close_in ic;
          prerr_endline e;
          exit 1
    in
    close_in ic;
    let scenario =
      Eval.Scenario.setup ~config:(enterprise_config employees seed) ()
    in
    let persons = Dirgen.Enterprise.person_count scenario.Eval.Scenario.enterprise in
    let budget = persons * budget_pct / 100 in
    let n = Array.length items in
    let train = Array.sub items 0 (n / 2) in
    let eval = Array.sub items (n / 2) (n - (n / 2)) in
    let replica =
      Ldap_replication.Filter_replica.create_over ~cache_capacity:cache
        scenario.Eval.Scenario.transport ~master_host:Eval.Scenario.master_host
    in
    let rules =
      [
        Ldap_selection.Generalize.Prefix_value { attr = "serialnumber"; keep = 6 };
        Ldap_selection.Generalize.Widen_to_presence { attr = "departmentnumber" };
        Ldap_selection.Generalize.Prefix_value { attr = "mail"; keep = 3 };
      ]
    in
    let filters = Eval.Scenario.select_static scenario ~rules ~train ~budget in
    (match Eval.Scenario.install_static replica filters with
    | Ok () -> ()
    | Error e ->
        prerr_endline e;
        exit 1);
    Eval.Scenario.drive_filter scenario replica ~cache_misses:true
      Eval.Scenario.no_updates eval;
    let stats = Ldap_replication.Filter_replica.stats replica in
    Printf.printf "trace: %d queries (%d train / %d eval)\n" n (Array.length train)
      (Array.length eval);
    Printf.printf "replica: %d filters, %d entries (budget %d)\n"
      (List.length (Ldap_replication.Filter_replica.stored_filters replica))
      (Ldap_replication.Filter_replica.size_entries replica)
      budget;
    Printf.printf "hit ratio: %.3f\n" (Ldap_replication.Stats.hit_ratio stats)
  in
  let doc = "Replay a workload trace against a filter replica and report hit ratio." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ employees_arg $ seed_arg $ trace $ budget_pct $ cache)

(* --- store --------------------------------------------------------------- *)

let store_cmd =
  let module R = Ldap_replication in
  let module Store = Ldap_store in
  let filters_arg =
    Arg.(value & opt int 4
         & info [ "filters" ] ~doc:"Distinct department filters journaled.")
  in
  let updates_arg =
    Arg.(value & opt int 60
         & info [ "updates" ] ~doc:"Update-stream steps applied after the checkpoint.")
  in
  let torn_arg =
    Arg.(value & flag
         & info [ "torn" ]
             ~doc:"Journal without per-append fsync and tear the WAL tail at \
                   the crash, so recovery must truncate.")
  in
  let run employees seed filters updates torn =
    let scenario = Eval.Scenario.setup ~config:(enterprise_config employees seed) () in
    let ent = scenario.Eval.Scenario.enterprise in
    let fleet = Eval.Scenario.fleet ~filters ent in
    let replica = Eval.Scenario.replica scenario in
    let medium =
      if torn then
        let prng = Dirgen.Prng.create (seed + 3) in
        let faults =
          Store.Medium.Faults.create ~torn_tail:1.0
            ~roll:(fun () -> Dirgen.Prng.float prng 1.0)
            ()
        in
        Store.Medium.memory ~faults ()
      else Store.Medium.memory ()
    in
    (match R.Filter_replica.open_store ~sync:(not torn) replica medium ~prefix:"replica" with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "open_store: %s\n" e;
        exit 1);
    Array.iter
      (fun q ->
        match R.Filter_replica.install_filter replica q with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "install_filter: %s\n" e;
            exit 1)
      fleet.Eval.Scenario.queries;
    R.Filter_replica.sync replica;
    (* Checkpoint establishes the durable baseline; the update batch
       below lands in the WAL tails (unsynced under --torn). *)
    R.Filter_replica.checkpoint replica;
    let stream =
      Dirgen.Update_stream.create ent
        { Dirgen.Update_stream.default_config with seed = seed + 1 }
    in
    Dirgen.Update_stream.steps stream updates;
    R.Filter_replica.sync replica;
    (* Simulated crash: fault-roll the medium, detach the zombie. *)
    Store.Medium.crash medium;
    R.Filter_replica.detach_store replica;
    let restarted =
      R.Filter_replica.create_over
        (R.Filter_replica.transport replica)
        ~master_host:(R.Filter_replica.master_host replica)
    in
    match R.Filter_replica.open_store ~sync:(not torn) restarted medium ~prefix:"replica" with
    | Error e ->
        Printf.eprintf "recovery failed: %s\n" e;
        exit 1
    | Ok report ->
        let rows =
          List.map
            (fun (fr : R.Filter_replica.filter_recovery) ->
              [
                string_of_int fr.R.Filter_replica.fr_slot;
                Query.to_string fr.R.Filter_replica.fr_query;
                string_of_int fr.R.Filter_replica.fr_entries;
                string_of_int fr.R.Filter_replica.fr_wal_bytes;
                string_of_int fr.R.Filter_replica.fr_snapshot_bytes;
                string_of_int fr.R.Filter_replica.fr_replayed;
                (if fr.R.Filter_replica.fr_truncated then
                   Printf.sprintf "@%d" fr.R.Filter_replica.fr_truncation_point
                 else "-");
                (match fr.R.Filter_replica.fr_cookie with
                | Some c -> c
                | None -> "-");
              ])
            report.R.Filter_replica.filters
        in
        Eval.Report.print
          (Eval.Report.make ~title:"Durable store recovery"
             ~notes:
               [
                 Printf.sprintf
                   "meta store: %d records replayed, truncated: %s"
                   report.R.Filter_replica.meta_replayed
                   (if report.R.Filter_replica.meta_truncated then "yes"
                    else "no");
                 Printf.sprintf "%d updates journaled %s the checkpoint"
                   updates
                   (if torn then "without fsync after" else "after");
                 "trunc: byte offset where WAL replay stopped (- = clean)";
                 "cookie: last durable ReSync cookie (resume point)";
               ]
             ~columns:
               [
                 "slot"; "filter"; "entries"; "WAL B"; "snap B"; "replayed";
                 "trunc"; "cookie";
               ]
             ~rows ())
  in
  let doc =
    "Journal a filter replica to a durable store, crash it, recover, and \
     report per-replica WAL/snapshot sizes, records replayed, truncation \
     points and last durable cookies."
  in
  Cmd.v (Cmd.info "store" ~doc)
    Term.(
      const run $ employees_arg $ seed_arg $ filters_arg $ updates_arg
      $ torn_arg)

(* --- antientropy ---------------------------------------------------------- *)

let antientropy_cmd =
  let module Resync = Ldap_resync in
  let module AE = Ldap_antientropy in
  let filter_arg =
    Arg.(value & opt string "(departmentNumber=01*)"
         & info [ "filter"; "f" ] ~doc:"Replicated filter to reconcile.")
  in
  let drift_arg =
    Arg.(value & opt int 60
         & info [ "drift" ]
             ~doc:"Update-stream steps applied at the master while the \
                   replica is detached.")
  in
  let segments_arg =
    Arg.(value & opt int AE.Tree.default_config.AE.Tree.segments
         & info [ "segments" ] ~doc:"Leaf segments of the hash tree.")
  in
  let run employees seed filter drift segments =
    match Query.of_strings ~base:"o=xyz" filter with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok query -> (
        let scenario = Eval.Scenario.setup ~config:(enterprise_config employees seed) () in
        let ent = scenario.Eval.Scenario.enterprise in
        let transport = scenario.Eval.Scenario.transport in
        let consumer = Resync.Consumer.create query in
        (match
           Resync.Consumer.sync_over consumer transport ~host:Eval.Scenario.master_host
         with
        | Ok _ -> ()
        | Error e ->
            prerr_endline (Resync.Consumer.sync_error_to_string e);
            exit 1);
        let before = Resync.Consumer.size consumer in
        (* The replica now holds the filter's content.  Drift the master
           underneath it, then reconcile by Merkle walk instead of a
           ReSync poll — the stale-cookie recovery path. *)
        let stream =
          Dirgen.Update_stream.create ent
            { Dirgen.Update_stream.default_config with seed = seed + 1 }
        in
        Dirgen.Update_stream.steps stream drift;
        let config = { AE.Tree.default_config with AE.Tree.segments } in
        match
          Resync.Consumer.merkle_sync ~config consumer transport
            ~host:Eval.Scenario.master_host
        with
        | Error e ->
            prerr_endline ("merkle sync failed: " ^ e);
            exit 1
        | Ok r ->
            let pct a b =
              if b = 0 then "-" else Printf.sprintf "%.1f%%" (100. *. float_of_int a /. float_of_int b)
            in
            Eval.Report.print
              (Eval.Report.make ~title:"Merkle anti-entropy reconciliation"
                 ~notes:
                   [
                     Printf.sprintf "filter %s: %d entries before, %d after"
                       (Query.to_string query) before
                       (Resync.Consumer.size consumer);
                     Printf.sprintf "%d update steps drifted the master underneath" drift;
                     "shipped %: drifted segments as a share of those compared";
                   ]
                 ~columns:[ "metric"; "value" ]
                 ~rows:
                   [
                     [ "rounds"; string_of_int r.AE.Exchange.rounds ];
                     [ "tree depth"; string_of_int r.AE.Exchange.depth ];
                     [ "segments total"; string_of_int r.AE.Exchange.segments_total ];
                     [ "segments compared"; string_of_int r.AE.Exchange.segments_compared ];
                     [ "segments shipped"; string_of_int r.AE.Exchange.segments_shipped ];
                     [
                       "shipped %";
                       pct r.AE.Exchange.segments_shipped r.AE.Exchange.segments_compared;
                     ];
                     [ "entries shipped"; string_of_int r.AE.Exchange.entries_shipped ];
                     [ "bytes sent"; string_of_int r.AE.Exchange.bytes_sent ];
                     [ "bytes received"; string_of_int r.AE.Exchange.bytes_received ];
                     [ "converged"; string_of_bool r.AE.Exchange.converged ];
                   ]
                 ()))
  in
  let doc =
    "Reconcile a drifted filter replica against its master by Merkle \
     anti-entropy and report the walk: tree depth, segments compared and \
     shipped, and modelled bytes both ways."
  in
  Cmd.v (Cmd.info "antientropy" ~doc)
    Term.(
      const run $ employees_arg $ seed_arg $ filter_arg $ drift_arg
      $ segments_arg)

(* --- experiment ---------------------------------------------------------- *)

let experiment_cmd =
  let which =
    let doc =
      Printf.sprintf "Which experiment: %s, or all."
        (String.concat ", " Eval.Figures.experiment_names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shrink directory and workload sizes.")
  in
  let run which quick =
    match String.lowercase_ascii which with
    | "all" -> Eval.Figures.all ~quick ()
    | name when List.mem name Eval.Figures.experiment_names ->
        Eval.Figures.run ~quick [ name ]
    | other ->
        Printf.eprintf "unknown experiment %S\n" other;
        exit 1
  in
  let doc = "Run one of the paper's tables or figures." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ which $ quick)

let () =
  let doc = "Filter-based LDAP directory replication (ICDCS 2005 reproduction)." in
  let info = Cmd.info "ldapctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; search_cmd; export_cmd; compare_cmd; contains_cmd;
            condition_cmd; workload_cmd; replay_cmd; experiment_cmd; store_cmd;
            antientropy_cmd;
          ]))
