(* Tests for the protocol extensions: server-side sorting (RFC 2891),
   the compare operation, replica-as-server endpoints, per-filter sync
   classes, and persist-mode connection accounting. *)
open Ldap
module Resync = Ldap_resync
module R = Ldap_replication

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

(* --- Sort control ------------------------------------------------------- *)

let person name age =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=x" name))
    [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ name ]); ("sn", [ name ]);
      ("age", [ string_of_int age ]) ]

let key ?(reverse = false) attr = { Sort_control.attr; reverse }

let test_sort_single_key () =
  let entries = [ person "carol" 30; person "alice" 50; person "bob" 40 ] in
  let by_sn = Sort_control.sort ~keys:[ key "sn" ] entries in
  Alcotest.(check (list string)) "ascending sn" [ "alice"; "bob"; "carol" ]
    (List.map (fun e -> List.hd (Entry.get e "sn")) by_sn);
  let by_age_desc =
    Sort_control.sort ~keys:[ key ~reverse:true "age" ] entries
  in
  Alcotest.(check (list string)) "descending age" [ "alice"; "bob"; "carol" ]
    (List.map (fun e -> List.hd (Entry.get e "sn")) by_age_desc)

let test_sort_numeric_not_lexicographic () =
  let entries = [ person "a" 9; person "b" 10; person "c" 100 ] in
  let sorted = Sort_control.sort ~keys:[ key "age" ] entries in
  Alcotest.(check (list string)) "integer order" [ "9"; "10"; "100" ]
    (List.map (fun e -> List.hd (Entry.get e "age")) sorted)

let test_sort_missing_last () =
  let no_age =
    Entry.make (dn "cn=zed,o=x")
      [ ("objectclass", [ "person" ]); ("cn", [ "zed" ]); ("sn", [ "zed" ]) ]
  in
  let sorted =
    Sort_control.sort ~keys:[ key "age" ]
      [ no_age; person "a" 10 ]
  in
  Alcotest.(check string) "missing sorts last" "zed"
    (List.hd (Entry.get (List.nth sorted 1) "sn"))

let test_sort_multiple_keys () =
  let e name sn age =
    Entry.make (dn (Printf.sprintf "cn=%s,o=x" name))
      [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ sn ]);
        ("age", [ string_of_int age ]) ]
  in
  let entries = [ e "x" "doe" 40; e "y" "doe" 20; e "z" "abel" 60 ] in
  let sorted =
    Sort_control.sort
      ~keys:[ key "sn"; key "age" ] entries
  in
  Alcotest.(check (list string)) "sn then age" [ "z"; "y"; "x" ]
    (List.map (fun en -> List.hd (Entry.get en "cn")) sorted)

let test_sort_keys_of_string () =
  (match Sort_control.keys_of_string "sn,-age" with
  | Ok [ a; b ] ->
      check_bool "first" true (a.Sort_control.attr = "sn" && not a.Sort_control.reverse);
      check_bool "second" true (b.Sort_control.attr = "age" && b.Sort_control.reverse)
  | _ -> Alcotest.fail "parse failed");
  check_bool "empty rejected" true (Result.is_error (Sort_control.keys_of_string "sn,,x"));
  check_bool "bare dash rejected" true (Result.is_error (Sort_control.keys_of_string "-"))

(* --- Compare operation --------------------------------------------------- *)

let make_backend () =
  let b = Backend.create () in
  must
    (Backend.add_context b
       (Entry.make (dn "o=x") [ ("objectclass", [ "organization" ]); ("o", [ "x" ]) ]));
  ignore (must (Backend.apply b (Update.Add (person "alice" 30))));
  b

let test_compare () =
  let b = make_backend () in
  check_bool "true assertion" true
    (must (Backend.compare_values b (dn "cn=alice,o=x") ~attr:"age" ~value:"30"));
  check_bool "matching rule" true
    (must (Backend.compare_values b (dn "cn=alice,o=x") ~attr:"sn" ~value:"ALICE"));
  check_bool "false assertion" false
    (must (Backend.compare_values b (dn "cn=alice,o=x") ~attr:"age" ~value:"31"));
  check_bool "absent attr is false" false
    (must (Backend.compare_values b (dn "cn=alice,o=x") ~attr:"mail" ~value:"x"));
  check_bool "missing entry errors" true
    (Result.is_error (Backend.compare_values b (dn "cn=zz,o=x") ~attr:"age" ~value:"1"))

(* --- Replica server -------------------------------------------------------- *)

let test_replica_server_end_to_end () =
  let b = make_backend () in
  ignore (must (Backend.apply b (Update.Add (person "bob" 40))));
  let master = Resync.Master.create b in
  let net = Network.create () in
  Network.add_handler net ~name:"hq" (Server.handler b);
  let replica = Net_fixture.replica_of master in
  must (R.Filter_replica.install_filter replica (Query.make ~base:(dn "o=x") (f "(sn=alice)")));
  Network.add_handler net ~name:"branch" (R.Replica_server.handler ~master_host:"hq" replica);
  Network.reset_stats net;
  (* Contained query: answered at the branch in one round trip. *)
  (match Network.search net ~from:"branch" (Query.make ~base:(dn "o=x") (f "(sn=alice)")) with
  | Ok [ e ] -> check_bool "alice" true (Entry.has_value e "sn" "alice")
  | Ok l -> Alcotest.failf "expected 1, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  check_int "one round trip" 1 (Network.stats net).Network.sync_rpcs;
  (* Uncontained query: chased to hq, still correct. *)
  Network.reset_stats net;
  (match Network.search net ~from:"branch" (Query.make ~base:(dn "o=x") (f "(sn=bob)")) with
  | Ok [ e ] -> check_bool "bob" true (Entry.has_value e "sn" "bob")
  | Ok l -> Alcotest.failf "expected 1, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  check_int "two round trips" 2 (Network.stats net).Network.sync_rpcs

(* --- Per-filter sync classes (section 3.2) -------------------------------- *)

let test_sync_where () =
  let b = make_backend () in
  ignore (must (Backend.apply b (Update.Add (person "bob" 40))));
  let master = Resync.Master.create b in
  let replica = Net_fixture.replica_of master in
  let q_alice = Query.make ~base:(dn "o=x") (f "(sn=alice)") in
  let q_bob = Query.make ~base:(dn "o=x") (f "(sn=bob)") in
  must (R.Filter_replica.install_filter replica q_alice);
  must (R.Filter_replica.install_filter replica q_bob);
  (* Both entries change at the master. *)
  ignore
    (must (Backend.apply b (Update.modify (dn "cn=alice,o=x") [ Update.replace_values "age" [ "31" ] ])));
  ignore
    (must (Backend.apply b (Update.modify (dn "cn=bob,o=x") [ Update.replace_values "age" [ "41" ] ])));
  (* Only the alice filter is in the high-consistency class. *)
  R.Filter_replica.sync_where replica (fun q -> Query.equal q q_alice);
  let stats = R.Filter_replica.stats replica in
  check_int "only one entry synced" 1 stats.R.Stats.sync_entries;
  (match R.Filter_replica.answer replica q_alice with
  | R.Replica.Answered [ e ] -> check_bool "fresh" true (Entry.has_value e "age" "31")
  | _ -> Alcotest.fail "expected hit");
  match R.Filter_replica.answer replica q_bob with
  | R.Replica.Answered [ e ] ->
      check_bool "stale until its class syncs" true (Entry.has_value e "age" "40")
  | _ -> Alcotest.fail "expected hit"

(* --- Persist connections ---------------------------------------------------- *)

(* Sessions holding a persistent-search connection: those with a push
   channel. *)
let persistent_count master =
  Resync.Server.fold (Resync.Master.server master) (fun s n -> if s.Resync.Server.push <> None then n + 1 else n) 0

let test_persistent_count () =
  let b = make_backend () in
  let master = Resync.Master.create b in
  check_int "none" 0 (persistent_count master);
  (match
     Resync.Server.handle (Resync.Master.server master)
       ~push:{ Resync.Protocol.pc_send = (fun _ -> Resync.Protocol.Push_ok); pc_close = ignore }
       { Resync.Protocol.mode = Resync.Protocol.Persist; cookie = None }
       (Query.make ~base:(dn "o=x") (f "(sn=alice)"))
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match
     Resync.Master.handle master
       { Resync.Protocol.mode = Resync.Protocol.Poll; cookie = None }
       (Query.make ~base:(dn "o=x") (f "(sn=bob)"))
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  check_int "sessions" 2 (Resync.Master.session_count master);
  check_int "one standing connection" 1 (persistent_count master)

let suite =
  [
    Alcotest.test_case "sort single key" `Quick test_sort_single_key;
    Alcotest.test_case "sort numeric" `Quick test_sort_numeric_not_lexicographic;
    Alcotest.test_case "sort missing last" `Quick test_sort_missing_last;
    Alcotest.test_case "sort multiple keys" `Quick test_sort_multiple_keys;
    Alcotest.test_case "sort keys parse" `Quick test_sort_keys_of_string;
    Alcotest.test_case "compare operation" `Quick test_compare;
    Alcotest.test_case "replica server end to end" `Quick test_replica_server_end_to_end;
    Alcotest.test_case "sync_where classes" `Quick test_sync_where;
    Alcotest.test_case "persistent count" `Quick test_persistent_count;
  ]
