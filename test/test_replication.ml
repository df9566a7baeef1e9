(* Tests for the replication layer: subtree replica (isContained),
   filter replica (containment answerability, caching, sync) and the
   query-cache window. *)
open Ldap
module Resync = Ldap_resync
module R = Ldap_replication

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

let person name parent serial dept =
  Entry.make
    (dn (Printf.sprintf "cn=%s,%s" name parent))
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]); ("sn", [ name ]);
      ("serialNumber", [ serial ]);
      ("departmentNumber", [ dept ]);
    ]

(* Master: o=xyz with two country subtrees plus a research ou. *)
let make_master () =
  let b = Backend.create ~indexed:[ "serialnumber"; "departmentnumber" ] () in
  must
    (Backend.add_context b
       (Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]));
  let apply op = ignore (must (Backend.apply b op)) in
  apply (Update.add (Entry.make (dn "c=us,o=xyz") [ ("objectclass", [ "country" ]); ("c", [ "us" ]) ]));
  apply (Update.add (Entry.make (dn "c=in,o=xyz") [ ("objectclass", [ "country" ]); ("c", [ "in" ]) ]));
  apply (Update.add (person "alice" "c=us,o=xyz" "0100001" "7"));
  apply (Update.add (person "bob" "c=us,o=xyz" "0100002" "7"));
  apply (Update.add (person "chen" "c=in,o=xyz" "0200001" "8"));
  apply (Update.add (person "dara" "c=in,o=xyz" "0200002" "9"));
  (b, Resync.Master.create b)

let q ?(scope = Scope.Sub) base filter = Query.make ~scope ~base:(dn base) (f filter)

(* --- Subtree replica -------------------------------------------------- *)

(* [isContained] shows in [answer]: a base-scoped query is answered
   locally exactly when its base is contained. *)
let is_contained replica base =
  match R.Subtree_replica.answer replica (Query.make ~scope:Scope.Base ~base (f "(objectclass=*)")) with
  | R.Replica.Referral -> false
  | _ -> true

let test_subtree_is_contained () =
  let _, master = make_master () in
  let replica =
    R.Subtree_replica.create (Net_fixture.transport_of master)
      ~master_host:Net_fixture.host ~subtrees:[ dn "c=us,o=xyz" ]
  in
  check_bool "inside" true (is_contained replica (dn "cn=alice,c=us,o=xyz"));
  check_bool "suffix itself" true (is_contained replica (dn "c=us,o=xyz"));
  check_bool "other country" false (is_contained replica (dn "cn=chen,c=in,o=xyz"));
  check_bool "root" false (is_contained replica (dn "o=xyz"))

let test_subtree_answer () =
  let _, master = make_master () in
  let replica =
    R.Subtree_replica.create (Net_fixture.transport_of master)
      ~master_host:Net_fixture.host ~subtrees:[ dn "c=us,o=xyz" ]
  in
  (match R.Subtree_replica.answer replica (q "c=us,o=xyz" "(serialNumber=0100001)") with
  | R.Replica.Answered [ e ] -> check_bool "entry" true (Entry.has_value e "cn" "alice")
  | _ -> Alcotest.fail "expected one entry");
  (* Root-based queries are misses: the base is not held (section 3.1.1). *)
  (match R.Subtree_replica.answer replica (q "o=xyz" "(serialNumber=0100001)") with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "expected referral for root-based query");
  let stats = R.Subtree_replica.stats replica in
  check_int "queries" 2 stats.R.Stats.queries;
  check_int "hits" 1 stats.R.Stats.hits

let test_subtree_partial_referral () =
  (* A replicated subtree containing a referral object cannot fully
     answer queries whose scope touches it (section 3.1.3). *)
  let b = Backend.create () in
  must
    (Backend.add_context b
       (Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]));
  let apply op = ignore (must (Backend.apply b op)) in
  apply (Update.add (Entry.make (dn "c=us,o=xyz") [ ("objectclass", [ "country" ]); ("c", [ "us" ]) ]));
  apply (Update.add (person "alice" "c=us,o=xyz" "1" "7"));
  apply
    (Update.add
       (Entry.make (dn "ou=research,c=us,o=xyz")
          [ ("objectclass", [ "referral" ]); ("ref", [ "ldap://hostB/ou=research,c=us,o=xyz" ]) ]));
  let master = Resync.Master.create b in
  let replica =
    R.Subtree_replica.create (Net_fixture.transport_of master)
      ~master_host:Net_fixture.host ~subtrees:[ dn "c=us,o=xyz" ]
  in
  (* Base under the referral: not contained. *)
  check_bool "under referral" false
    (is_contained replica (dn "cn=x,ou=research,c=us,o=xyz"));
  (* Subtree query over the context generates a referral (partial). *)
  (match R.Subtree_replica.answer replica (q "c=us,o=xyz" "(objectclass=*)") with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "expected partial-answer referral");
  (* A base-scoped query above the referral is fine. *)
  match R.Subtree_replica.answer replica (q ~scope:Scope.Base "cn=alice,c=us,o=xyz" "(objectclass=*)") with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "expected base answer"

let test_subtree_sync () =
  let b, master = make_master () in
  let replica =
    R.Subtree_replica.create (Net_fixture.transport_of master)
      ~master_host:Net_fixture.host ~subtrees:[ dn "c=us,o=xyz" ]
  in
  check_int "initial size" 3 (R.Subtree_replica.size_entries replica);
  ignore (must (Backend.apply b (Update.add (person "eve" "c=us,o=xyz" "0100003" "7"))));
  ignore (must (Backend.apply b (Update.add (person "farah" "c=in,o=xyz" "0200003" "8"))));
  R.Subtree_replica.sync replica;
  check_int "us change arrived, in change did not" 4 (R.Subtree_replica.size_entries replica);
  match R.Subtree_replica.answer replica (q "c=us,o=xyz" "(serialNumber=0100003)") with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "expected synced entry"

(* --- Filter replica ---------------------------------------------------- *)

let test_filter_replica_containment_answer () =
  let _, master = make_master () in
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (q "o=xyz" "(serialNumber=01*)"));
  check_int "entries" 2 (R.Filter_replica.size_entries replica);
  (* Exact containment across templates: equality inside prefix. *)
  (match R.Filter_replica.answer replica (q "o=xyz" "(serialNumber=0100002)") with
  | R.Replica.Answered [ e ] -> check_bool "bob" true (Entry.has_value e "cn" "bob")
  | _ -> Alcotest.fail "expected hit");
  (* Narrower base is still contained. *)
  (match R.Filter_replica.answer replica (q "c=us,o=xyz" "(serialNumber=0100001)") with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "expected scoped hit");
  (* Outside the stored filter. *)
  (match R.Filter_replica.answer replica (q "o=xyz" "(serialNumber=0200001)") with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "expected referral");
  let stats = R.Filter_replica.stats replica in
  check_int "hits" 2 stats.R.Stats.hits;
  check_int "queries" 3 stats.R.Stats.queries

(* Substrings with an [any] or [final] component are beyond the
   template proof; admission proves them linearly, so a replica storing
   one answers it and what it contains. *)
let test_filter_replica_final_substring () =
  let b, master = make_master () in
  ignore (must (Backend.apply b (Update.add (person "ba" "c=in,o=xyz" "0200003" "9"))));
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (q "o=xyz" "(cn=*a)"));
  List.iter
    (fun filter ->
      let query = q "o=xyz" filter in
      let expected =
        match Backend.search b query with
        | Ok { Backend.entries; _ } -> entries
        | Error _ -> Alcotest.fail "master search failed"
      in
      let dns l = List.sort Dn.compare (List.map Entry.dn l) in
      match R.Filter_replica.answer replica query with
      | R.Replica.Answered entries ->
          check_bool (filter ^ " answered with the master's entries") true
            (expected <> [] && dns entries = dns expected)
      | R.Replica.Referral -> Alcotest.fail (filter ^ " referred"))
    [ "(cn=*a)"; "(cn=ba)" ]

let test_filter_replica_no_false_answers () =
  (* A query matching entries outside every stored filter must refer,
     even if some matching entries are held. *)
  let _, master = make_master () in
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (q "o=xyz" "(departmentNumber=7)"));
  match R.Filter_replica.answer replica (q "o=xyz" "(serialNumber=0100001)") with
  | R.Replica.Referral -> ()
  | R.Replica.Answered _ ->
      Alcotest.fail "answered a query not contained in any stored filter"

let test_filter_replica_sync_traffic () =
  let b, master = make_master () in
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (q "o=xyz" "(departmentNumber=7)"));
  let stats = R.Filter_replica.stats replica in
  check_int "install counted as fetch" 2 stats.R.Stats.fetch_entries;
  ignore
    (must
       (Backend.apply b
          (Update.modify (dn "cn=alice,c=us,o=xyz")
             [ Update.replace_values "telephoneNumber" [ "1" ] ])));
  ignore
    (must
       (Backend.apply b
          (Update.modify (dn "cn=chen,c=in,o=xyz")
             [ Update.replace_values "telephoneNumber" [ "2" ] ])));
  R.Filter_replica.sync replica;
  check_int "only in-content change synced" 1 stats.R.Stats.sync_entries

let test_filter_replica_install_remove () =
  let _, master = make_master () in
  let replica = Net_fixture.replica_of master in
  let query = q "o=xyz" "(departmentNumber=7)" in
  must (R.Filter_replica.install_filter replica query);
  must (R.Filter_replica.install_filter replica query);
  check_int "idempotent install" 1 (List.length (R.Filter_replica.stored_filters replica));
  check_int "one session at master" 1 (Resync.Master.session_count master);
  R.Filter_replica.remove_filter replica query;
  check_int "removed" 0 (List.length (R.Filter_replica.stored_filters replica));
  check_int "session ended" 0 (Resync.Master.session_count master)

let test_filter_replica_user_cache () =
  let b, master = make_master () in
  let replica = Net_fixture.replica_of ~cache_capacity:2 master in
  let query = q "o=xyz" "(serialNumber=0200001)" in
  (match R.Filter_replica.answer replica query with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "expected initial miss");
  (* The miss is answered by the master and cached. *)
  let result =
    match Backend.search b query with Ok { Backend.entries; _ } -> entries | Error _ -> []
  in
  R.Filter_replica.record_miss_result replica query result;
  (match R.Filter_replica.answer replica query with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "expected cached hit");
  (* Window eviction: two more cached queries push it out. *)
  R.Filter_replica.record_miss_result replica (q "o=xyz" "(serialNumber=0200002)") [];
  R.Filter_replica.record_miss_result replica (q "o=xyz" "(serialNumber=0100001)") [];
  match R.Filter_replica.answer replica query with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "expected eviction"

let test_filter_replica_attrs_respected () =
  (* A stored query projecting a subset of attributes cannot answer an
     all-attributes query (condition (ii) of QC). *)
  let _, master = make_master () in
  let replica = Net_fixture.replica_of master in
  let narrow =
    Query.make ~attrs:(Query.Select [ "cn" ]) ~base:(dn "o=xyz") (f "(departmentNumber=7)")
  in
  must (R.Filter_replica.install_filter replica narrow);
  (match R.Filter_replica.answer replica (q "o=xyz" "(departmentNumber=7)") with
  | R.Replica.Referral -> ()
  | _ -> Alcotest.fail "all-attrs query must not be answered from a projection");
  (* The same query restricted to cn is answerable. *)
  let restricted =
    Query.make ~attrs:(Query.Select [ "cn" ]) ~base:(dn "o=xyz") (f "(departmentNumber=7)")
  in
  match R.Filter_replica.answer replica restricted with
  | R.Replica.Answered entries ->
      check_int "entries" 2 (List.length entries);
      List.iter
        (fun e -> check_bool "only cn" false (Entry.has_attribute e "serialnumber"))
        entries
  | _ -> Alcotest.fail "expected projected hit"

let test_subtree_scopes () =
  let _, master = make_master () in
  let replica =
    R.Subtree_replica.create (Net_fixture.transport_of master)
      ~master_host:Net_fixture.host ~subtrees:[ dn "c=us,o=xyz" ]
  in
  (match
     R.Subtree_replica.answer replica
       (q ~scope:Scope.Base "c=us,o=xyz" "(objectclass=country)")
   with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "base scope");
  (match
     R.Subtree_replica.answer replica
       (q ~scope:Scope.One "c=us,o=xyz" "(objectclass=inetOrgPerson)")
   with
  | R.Replica.Answered l -> check_int "one-level children" 2 (List.length l)
  | _ -> Alcotest.fail "one scope");
  match
    R.Subtree_replica.answer replica (q ~scope:Scope.Base "c=us,o=xyz" "(sn=nobody)")
  with
  | R.Replica.Answered [] -> ()
  | _ -> Alcotest.fail "empty result is still a hit"

let test_filter_replica_rename_chain () =
  (* Rename chains at the master replay safely at the replica. *)
  let b, master = make_master () in
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (q "o=xyz" "(departmentNumber=7)"));
  let rdn s = match Dn.rdn_of_string s with Ok r -> r | Error e -> failwith e in
  (* alice -> tmp; bob -> alice: DN reuse within one sync interval. *)
  ignore (must (Backend.apply b (Update.modify_dn (dn "cn=alice,c=us,o=xyz") (rdn "cn=tmp"))));
  ignore (must (Backend.apply b (Update.modify_dn (dn "cn=bob,c=us,o=xyz") (rdn "cn=alice"))));
  R.Filter_replica.sync replica;
  match R.Filter_replica.answer replica (q "o=xyz" "(departmentNumber=7)") with
  | R.Replica.Answered entries ->
      let names =
        List.sort String.compare
          (List.concat_map (fun e -> Entry.get e "cn") entries)
      in
      Alcotest.(check (list string)) "renamed population" [ "alice"; "tmp" ] names
  | _ -> Alcotest.fail "expected hit"

(* --- Query cache -------------------------------------------------------- *)

let test_query_cache_containment () =
  let cache = R.Query_cache.create ~capacity:4 in
  let block = q "o=xyz" "(serialNumber=01*)" in
  let entries = [ Entry.make (dn "cn=a,c=us,o=xyz") [ ("objectclass", [ "person" ]); ("cn", [ "a" ]); ("sn", [ "a" ]); ("serialNumber", [ "0100009" ]) ] ] in
  R.Query_cache.add cache block entries;
  (match R.Query_cache.answer cache (q "o=xyz" "(serialNumber=0100009)") with
  | Some [ _ ] -> ()
  | Some l -> Alcotest.failf "expected 1, got %d" (List.length l)
  | None -> Alcotest.fail "expected contained answer");
  (* Contained query returning no entries is still a (negative) hit. *)
  (match R.Query_cache.answer cache (q "o=xyz" "(serialNumber=0100123)") with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected empty contained answer");
  check_bool "uncontained misses" true
    (R.Query_cache.answer cache (q "o=xyz" "(serialNumber=0200001)") = None)

let test_query_cache_window () =
  let cache = R.Query_cache.create ~capacity:2 in
  let mk i = q "o=xyz" (Printf.sprintf "(serialNumber=%07d)" i) in
  R.Query_cache.add cache (mk 1) [];
  R.Query_cache.add cache (mk 2) [];
  R.Query_cache.add cache (mk 3) [];
  check_int "capacity respected" 2 (R.Query_cache.length cache);
  check_bool "oldest evicted" true (R.Query_cache.answer cache (mk 1) = None);
  check_bool "newest present" true (R.Query_cache.answer cache (mk 3) <> None);
  (* Re-adding refreshes position. *)
  R.Query_cache.add cache (mk 2) [];
  R.Query_cache.add cache (mk 4) [];
  check_bool "refreshed survives" true (R.Query_cache.answer cache (mk 2) <> None);
  check_bool "stale evicted" true (R.Query_cache.answer cache (mk 3) = None)

let test_query_cache_disabled () =
  let cache = R.Query_cache.create ~capacity:0 in
  R.Query_cache.add cache (q "o=xyz" "(a=1)") [];
  check_int "disabled stays empty" 0 (R.Query_cache.length cache);
  check_bool "never answers" true (R.Query_cache.answer cache (q "o=xyz" "(a=1)") = None)

(* Property: the filter replica never returns a wrong answer — any
   answered query returns exactly what the master would. *)
let prop_no_wrong_answers =
  QCheck.Test.make ~name:"filter replica: answers equal master's" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 1 9))
    (fun (prefix_case, serial_digit) ->
      let b, master = make_master () in
      let replica = Net_fixture.replica_of master in
      let stored =
        match prefix_case with
        | 0 -> q "o=xyz" "(serialNumber=01*)"
        | 1 -> q "o=xyz" "(serialNumber=02*)"
        | 2 -> q "o=xyz" "(departmentNumber=7)"
        | _ -> q "c=us,o=xyz" "(objectclass=*)"
      in
      (match R.Filter_replica.install_filter replica stored with
      | Ok () -> ()
      | Error e -> failwith e);
      let query = q "o=xyz" (Printf.sprintf "(serialNumber=0%d0000%d)" (1 + (serial_digit mod 2)) (serial_digit mod 4)) in
      match R.Filter_replica.answer replica query with
      | R.Replica.Referral -> true
      | R.Replica.Answered entries ->
          let expected =
            match Backend.search b query with
            | Ok { Backend.entries; _ } -> entries
            | Error _ -> []
          in
          let dns l = List.sort compare (List.map (fun e -> Dn.canonical (Entry.dn e)) l) in
          dns entries = dns expected)

let test_filter_replica_lossy_transport () =
  (* The acceptance scenario: a filter replica syncing over a faulty
     link — dropped replies, dropped requests, a forced session expiry
     — converges to the master's content, and the recovery work shows
     up in its stats. *)
  let b, master = make_master () in
  let apply op = ignore (must (Backend.apply b op)) in
  let net = Network.create () in
  let faults = Network.Faults.create () in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"hq" master;
  let replica = R.Filter_replica.create_over transport ~master_host:"hq" in
  let stored = q "o=xyz" "(departmentNumber=7)" in
  must (R.Filter_replica.install_filter replica stored);
  check_int "initial content" 2 (R.Filter_replica.size_entries replica);
  (* Round 1: the poll's reply is lost after the master processed it. *)
  apply (Update.add (person "eve" "c=us,o=xyz" "0100003" "7"));
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  R.Filter_replica.sync replica;
  (* Round 2: the master expires every session mid-stream. *)
  apply (Update.modify (dn "cn=bob,c=us,o=xyz")
           [ Update.replace_values "departmentNumber" [ "8" ] ]);
  Resync.Server.expire (Resync.Master.server master) ~idle_limit:0;
  R.Filter_replica.sync replica;
  (* Round 3: a poll abandoned after four dropped requests leaves the
     replica stale but intact; the next round catches up. *)
  apply (Update.add (person "finn" "c=us,o=xyz" "0100004" "7"));
  Network.Faults.script faults
    [
      Network.Faults.Drop_request; Network.Faults.Drop_request;
      Network.Faults.Drop_request; Network.Faults.Drop_request;
    ];
  R.Filter_replica.sync replica;
  check_int "stale after exhaustion" 2 (R.Filter_replica.size_entries replica);
  R.Filter_replica.sync replica;
  (* Converged: alice, eve, finn (bob moved out). *)
  check_int "converged" 3 (R.Filter_replica.size_entries replica);
  (match R.Filter_replica.answer replica stored with
  | R.Replica.Answered entries -> check_int "answers current content" 3 (List.length entries)
  | R.Replica.Referral -> Alcotest.fail "expected local answer");
  let stats = R.Filter_replica.stats replica in
  check_bool "retries recorded" true (stats.R.Stats.sync_retries >= 1);
  check_int "resyncs recorded" 2 stats.R.Stats.resyncs;
  check_bool "recovery bytes recorded" true (stats.R.Stats.recovery_bytes > 0);
  check_int "exhaustion recorded" 1 stats.R.Stats.sync_failures;
  check_bool "backoff ticks recorded" true (stats.R.Stats.sync_backoff_ticks >= 1)

(* --- Kept consumer list ------------------------------------------------

   The replica keeps its (query, consumer) list instead of folding the
   containment index on every poll round.  After any sequence of cold,
   rescoped (delta) and removal installs and recoveries from the durable
   store it must equal the index's fold, in order.  The oracle is a
   shadow index fed the same additions and removals (recovery re-adds
   the surviving queries in install order, which is slot order). *)

module Cidx = Ldap_containment.Containment_index

type replica_op = Install of int | Rescope of int * int | Remove of int | Recover

let query_pool =
  [|
    q "o=xyz" "(departmentNumber=7)";
    q "o=xyz" "(departmentNumber=8)";
    q "o=xyz" "(&(objectclass=inetOrgPerson)(departmentNumber=7))";
    q "o=xyz" "(serialNumber=01*)";
    q "o=xyz" "(serialNumber=0100001)";
    q "c=us,o=xyz" "(serialNumber=0100002)";
    q "c=in,o=xyz" "(sn=c*)";
    q "o=xyz" "(cn=dara)";
  |]

let replica_ops =
  let open QCheck.Gen in
  let i = int_bound (Array.length query_pool - 1) in
  list_size (int_range 0 25)
    (frequency
       [
         (4, map (fun i -> Install i) i);
         (3, map2 (fun i j -> Rescope (i, j)) i i);
         (3, map (fun i -> Remove i) i);
         (1, return Recover);
       ])

let prop_kept_consumers_follow_index =
  QCheck.Test.make ~name:"filter replica: kept consumers = index fold" ~count:60
    (QCheck.make replica_ops)
    (fun ops ->
      let _, master = make_master () in
      let medium = Ldap_store.Medium.memory () in
      let replica = ref (Net_fixture.replica_of master) in
      ignore (must (R.Filter_replica.open_store !replica medium ~prefix:"r"));
      let shadow = ref (Cidx.create ()) and installed = ref [] in
      let added qq =
        if not (Cidx.mem !shadow qq) then begin
          Cidx.add !shadow qq ();
          installed := !installed @ [ qq ]
        end
      in
      let removed qq =
        Cidx.remove !shadow qq;
        installed := List.filter (fun x -> not (Query.equal x qq)) !installed
      in
      let agrees () =
        let expected = List.rev (Cidx.fold !shadow ~init:[] ~f:(fun acc qq () -> qq :: acc)) in
        let kept = R.Filter_replica.consumers !replica in
        List.length kept = List.length expected
        && List.for_all2
             (fun (qq, c) e ->
               Query.equal qq e
               && match R.Filter_replica.consumer_for !replica qq with
                  | Some c' -> c' == c
                  | None -> false)
             kept expected
      in
      List.for_all
        (fun op ->
          (match op with
          | Install i ->
              must (R.Filter_replica.install_filter !replica query_pool.(i));
              added query_pool.(i)
          | Rescope (i, j) ->
              ignore
                (must
                   (R.Filter_replica.install_filter_rescoped !replica query_pool.(i)
                      ~donor:query_pool.(j)));
              added query_pool.(i)
          | Remove i ->
              R.Filter_replica.remove_filter !replica query_pool.(i);
              removed query_pool.(i)
          | Recover ->
              R.Filter_replica.detach_store !replica;
              let r =
                R.Filter_replica.create_over (R.Filter_replica.transport !replica)
                  ~master_host:(R.Filter_replica.master_host !replica)
              in
              ignore (must (R.Filter_replica.open_store r medium ~prefix:"r"));
              replica := r;
              shadow := Cidx.create ();
              List.iter (fun qq -> Cidx.add !shadow qq ()) !installed);
          agrees ())
        ops)

let suite =
  [
    Alcotest.test_case "subtree isContained" `Quick test_subtree_is_contained;
    Alcotest.test_case "subtree answer" `Quick test_subtree_answer;
    Alcotest.test_case "subtree partial referral" `Quick test_subtree_partial_referral;
    Alcotest.test_case "subtree sync" `Quick test_subtree_sync;
    Alcotest.test_case "filter containment answer" `Quick test_filter_replica_containment_answer;
    Alcotest.test_case "filter no false answers" `Quick test_filter_replica_no_false_answers;
    Alcotest.test_case "filter final substring" `Quick test_filter_replica_final_substring;
    Alcotest.test_case "filter sync traffic" `Quick test_filter_replica_sync_traffic;
    Alcotest.test_case "filter install/remove" `Quick test_filter_replica_install_remove;
    Alcotest.test_case "filter user cache" `Quick test_filter_replica_user_cache;
    Alcotest.test_case "filter attrs respected" `Quick test_filter_replica_attrs_respected;
    Alcotest.test_case "subtree scopes" `Quick test_subtree_scopes;
    Alcotest.test_case "filter rename chain" `Quick test_filter_replica_rename_chain;
    Alcotest.test_case "query cache containment" `Quick test_query_cache_containment;
    Alcotest.test_case "query cache window" `Quick test_query_cache_window;
    Alcotest.test_case "query cache disabled" `Quick test_query_cache_disabled;
    Alcotest.test_case "filter replica lossy transport" `Quick
      test_filter_replica_lossy_transport;
    QCheck_alcotest.to_alcotest prop_no_wrong_answers;
    QCheck_alcotest.to_alcotest prop_kept_consumers_follow_index;
  ]
