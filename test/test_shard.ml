(* Tests for the shard subsystem: partition key mapping, cover
   correctness and plan caching, routed writes and ownership moves,
   fanned-out searches and ReSync sessions through the router, the
   composite-cookie resume discipline across partial fan-out failures
   (a consumer never acknowledges a shard CSN it has not applied),
   Merkle anti-entropy through the router, per-shard crash recovery,
   and a router-vs-single-master equivalence property across all
   three history strategies. *)
open Ldap
module Partition = Ldap_shard.Partition
module Shard_master = Ldap_shard.Shard_master
module Router = Ldap_shard.Router
module Protocol = Ldap_resync.Protocol
module Master = Ldap_resync.Master
module Consumer = Ldap_resync.Consumer
module Transport = Ldap_resync.Transport
module Content = Ldap_resync.Content
module Containment = Ldap_containment.Filter_containment
module Medium = Ldap_store.Medium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn
let must = function Ok v -> v | Error e -> failwith e

(* --- A miniature geographically blocked directory ----------------------
   o=shard holds one OU per country; employees carry serial numbers
   whose two-digit prefix is the country's block, mirroring the dirgen
   layout at test size. *)

let root = dn "o=shard"

let org =
  Entry.make root [ ("objectclass", [ "organization" ]); ("o", [ "shard" ]) ]

let country_dn c = dn (Printf.sprintf "ou=c%d,o=shard" c)

let country_entry c =
  Entry.make (country_dn c)
    [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ Printf.sprintf "c%d" c ]) ]

let serial b n = Printf.sprintf "%02d%03d" b n
let emp_dn c n = dn (Printf.sprintf "cn=p%d-%d,ou=c%d,o=shard" c n c)

let employee ?(dept = "100") ?block ~country ~n () =
  let block = Option.value block ~default:country in
  let name = Printf.sprintf "p%d-%d" country n in
  Entry.make (emp_dn country n)
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("serialNumber", [ serial block n ]);
      ("departmentNumber", [ dept ]);
    ]

let build_source ~countries ~per =
  let b = Backend.create ~indexed:[ "serialnumber" ] () in
  must (Backend.add_context b org);
  for c = 0 to countries - 1 do
    ignore (must (Backend.apply b (Update.add (country_entry c))));
    for n = 0 to per - 1 do
      let dept = if n mod 2 = 0 then "100" else "200" in
      ignore (must (Backend.apply b (Update.add (employee ~dept ~country:c ~n ()))))
    done
  done;
  b

let blocks countries =
  Array.init countries (fun c -> (Printf.sprintf "%02d" c, Some (country_dn c)))

let make_partition ?(countries = 4) ~shards () =
  Partition.create ~shards ~blocks:(blocks countries)

(* A router over a fresh source backend.  The source stays the oracle:
   every mutation a test routes is also applied to it directly. *)
let make_router ?(countries = 4) ?(per = 3) ?strategy ~shards () =
  let source = build_source ~countries ~per in
  let partition = make_partition ~countries ~shards () in
  let transport =
    Transport.create ~faults:(Network.Faults.create ()) (Network.create ())
  in
  let masters =
    Array.init shards (fun i -> Shard_master.create ?strategy Schema.default ~id:i)
  in
  let router = Router.create partition transport masters in
  must (Router.seed_from_backend router source);
  (router, transport, source)

let canon entries =
  List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) entries

(* Every backend stamps post-images with its own committing CSN as
   modifyTimestamp, so shard-local copies never match the oracle's
   verbatim: compare modulo that operational attribute. *)
let untimed e = Entry.replace_values e "modifytimestamp" [ "0" ]

let entries_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> Entry.equal (untimed x) (untimed y))
       (canon a) (canon b)

let oracle_search source q =
  match Backend.search source q with
  | Ok { Backend.entries; _ } -> entries
  | Error _ -> failwith "oracle search failed"

let search_matches_oracle router source q =
  entries_equal (must (Router.search router q)) (oracle_search source q)

let consumer_matches_oracle consumer source =
  entries_equal (Consumer.entries consumer)
    (Content.current source (Consumer.query consumer))

let sync_router consumer transport router =
  match Consumer.sync_over consumer transport ~host:(Router.host router) with
  | Ok outcome -> outcome.Consumer.reply
  | Error e -> failwith (Consumer.sync_error_to_string e)

let route_apply router source op =
  let r = Router.apply router op in
  let o = Backend.apply source op in
  (match (r, o) with
  | Ok _, Ok _ | Error _, Error _ -> ()
  | Ok _, Error e -> failwith ("router succeeded where oracle failed: " ^ e)
  | Error e, Ok _ -> failwith ("router failed where oracle succeeded: " ^ e));
  r

let serial_query b =
  Query.make ~base:root (f (Printf.sprintf "(serialNumber=%02d*)" b))

let broadcast_query = Query.make ~base:root (f "(objectclass=inetOrgPerson)")

(* --- Composite cookies -------------------------------------------------- *)

let is_composite_cookie c = Protocol.parse_composite_cookie c <> None

let composite_component c ~shard =
  Option.bind (Protocol.parse_composite_cookie c) (List.assoc_opt shard)

let test_composite_cookie () =
  let comps = [ (2, "rs:5:00000007.000"); (0, "rs:1:00000003.000") ] in
  let c = Protocol.composite_cookie comps in
  check_bool "composite prefix" true (is_composite_cookie c);
  (match Protocol.parse_composite_cookie c with
  | Some parsed ->
      Alcotest.(check (list (pair int string)))
        "sorted round trip"
        [ (0, "rs:1:00000003.000"); (2, "rs:5:00000007.000") ]
        parsed
  | None -> failwith "round trip failed");
  Alcotest.(check (option string))
    "component lookup" (Some "rs:5:00000007.000")
    (composite_component c ~shard:2);
  Alcotest.(check (option string))
    "absent component" None
    (composite_component c ~shard:1);
  check_bool "empty composite" true
    (Protocol.parse_composite_cookie (Protocol.composite_cookie []) = Some []);
  check_bool "plain cookie is not composite" true
    (Protocol.parse_composite_cookie "rs:1:00000003.000" = None);
  check_bool "missing separator" true
    (Protocol.parse_composite_cookie "rsm:1rs:1:x" = None);
  check_bool "empty component" true
    (Protocol.parse_composite_cookie "rsm:1@" = None)

(* --- Partition keys ----------------------------------------------------- *)

let test_partition_keys () =
  let p = make_partition ~countries:4 ~shards:2 () in
  check_int "block 0 home" 0 (Partition.of_serial p (serial 0 5));
  check_int "block 1 home" 1 (Partition.of_serial p (serial 1 5));
  check_int "block 2 wraps" 0 (Partition.of_serial p (serial 2 5));
  check_int "block 3 wraps" 1 (Partition.of_serial p (serial 3 5));
  check_int "unknown block at shard 0" 0 (Partition.of_serial p "99000");
  check_int "short value at shard 0" 0 (Partition.of_serial p "7");
  check_int "keyed entry" 1 (Partition.of_entry p (employee ~country:1 ~n:0 ()));
  check_bool "ou is structural" true (Partition.is_structural (country_entry 0));
  check_bool "employee is keyed" false
    (Partition.is_structural (employee ~country:0 ~n:0 ()));
  Alcotest.(check (list string)) "shard 0 blocks" [ "00"; "02" ]
    (Partition.blocks_of p 0);
  Alcotest.(check (list string)) "shard 1 blocks" [ "01"; "03" ]
    (Partition.blocks_of p 1)

(* --- Covers ------------------------------------------------------------- *)

let test_cover_single_block () =
  List.iter
    (fun shards ->
      let p = make_partition ~countries:4 ~shards () in
      for b = 0 to 3 do
        let q = serial_query b in
        Alcotest.(check (list int))
          (Printf.sprintf "block %d at %d shards" b shards)
          [ b mod shards ] (Partition.cover p q);
        Alcotest.(check (list int))
          "cached agrees with oracle" (Partition.cover_uncached p q)
          (Partition.cover p q)
      done)
    [ 1; 2; 4 ]

let test_cover_broadcast_and_conjunction () =
  let p = make_partition ~countries:4 ~shards:4 () in
  let dept = Query.make ~base:root (f "(departmentNumber=100)") in
  Alcotest.(check (list int)) "no key: broadcast" [ 0; 1; 2; 3 ]
    (Partition.cover p dept);
  let conj =
    Query.make ~base:root (f "(&(serialNumber=02*)(departmentNumber=100))")
  in
  Alcotest.(check (list int)) "conjunction keeps the key" [ 2 ]
    (Partition.cover p conj);
  let neg = Query.make ~base:root (f "(!(serialNumber=02*))") in
  Alcotest.(check (list int)) "negated key still needs the rest" [ 0; 1; 3 ]
    (Partition.cover p neg);
  let union =
    Query.make ~base:root (f "(|(serialNumber=01*)(serialNumber=02*))")
  in
  Alcotest.(check (list int)) "union covers both owners" [ 1; 2 ]
    (Partition.cover p union)

let test_cover_geography () =
  let p = make_partition ~countries:4 ~shards:4 () in
  let q = Query.make ~base:(country_dn 2) (f "(objectclass=inetOrgPerson)") in
  (* Anchored under country 2's subtree: only its block's owner (plus
     shard 0, which holds structural and stray entries) can answer. *)
  Alcotest.(check (list int)) "geography prunes" [ 0; 2 ] (Partition.cover p q);
  Alcotest.(check (list int)) "pruning can be disabled" [ 0; 1; 2; 3 ]
    (Partition.cover ~use_geo:false p q);
  Alcotest.(check (list int)) "uncached agrees" [ 0; 2 ]
    (Partition.cover_uncached p q)

let test_plan_cache () =
  let p = make_partition ~countries:4 ~shards:4 () in
  check_int "no lookups yet" 0 (Partition.plan_hits p + Partition.plan_misses p);
  Alcotest.(check (list int)) "first shape" [ 1 ] (Partition.cover p (serial_query 1));
  check_int "one miss" 1 (Partition.plan_misses p);
  (* Same shape, different constant: the cached plan must still route
     by the query's own values. *)
  Alcotest.(check (list int)) "cached, other block" [ 3 ]
    (Partition.cover p (serial_query 3));
  check_int "one hit" 1 (Partition.plan_hits p);
  check_int "still one miss" 1 (Partition.plan_misses p)

(* --- Routed writes ------------------------------------------------------ *)

let test_search_matches_oracle () =
  let router, _, source = make_router ~shards:2 () in
  List.iter
    (fun q -> check_bool "search = oracle" true (search_matches_oracle router source q))
    [
      serial_query 0;
      serial_query 3;
      broadcast_query;
      Query.make ~base:root (f "(departmentNumber=200)");
      Query.make ~base:(country_dn 1) (f "(objectclass=inetOrgPerson)");
      Query.make ~base:root (f "(&(serialNumber=01*)(departmentNumber=100))");
      Query.make ~base:root (f "(cn=p2-1)");
    ]

let test_write_routing () =
  let router, _, source = make_router ~shards:2 () in
  let csn0 = Shard_master.csn (Router.shard router 0) in
  let csn1 = Shard_master.csn (Router.shard router 1) in
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 0)
             [ Update.replace_values "telephonenumber" [ "555-0001" ] ])));
  check_bool "owner advanced" true
    (Csn.( < ) csn1 (Shard_master.csn (Router.shard router 1)));
  check_bool "other shard untouched" true
    (Csn.equal (Shard_master.csn (Router.shard router 0)) csn0);
  check_bool "search sees the write" true
    (search_matches_oracle router source (serial_query 1))

let owned router = List.init (Partition.shards (Router.partition router)) (Router.owned router)

let check_owned_total router source =
  check_int "owned counts sum to distinct DNs" (Backend.total_entries source)
    (List.fold_left ( + ) 0 (owned router))

let test_ownership_move () =
  let router, _, source = make_router ~shards:2 () in
  check_owned_total router source;
  let before = owned router in
  (* Re-key p1-0 from block 1 (shard 1) into block 2 (shard 0). *)
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 0)
             [ Update.replace_values "serialnumber" [ serial 2 900 ] ])));
  let b0 = Shard_master.backend (Router.shard router 0) in
  let b1 = Shard_master.backend (Router.shard router 1) in
  check_bool "new owner holds it" true (Backend.find b0 (emp_dn 1 0) <> None);
  check_bool "old owner dropped it" true (Backend.find b1 (emp_dn 1 0) = None);
  check_bool "searchable at new home" true
    (search_matches_oracle router source (serial_query 2));
  check_bool "gone from old block" true
    (search_matches_oracle router source (serial_query 1));
  (* Routing follows the entry: a follow-up modify lands at shard 0. *)
  let csn1 = Shard_master.csn (Router.shard router 1) in
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 0)
             [ Update.replace_values "telephonenumber" [ "555-0002" ] ])));
  check_bool "follow-up at new owner" true
    (Csn.equal (Shard_master.csn (Router.shard router 1)) csn1);
  check_int "one move recorded" 1 (Router.report router).Router.rp_moves;
  Alcotest.(check (list int)) "ownership shifted by one"
    (match before with [ o0; o1 ] -> [ o0 + 1; o1 - 1 ] | l -> l)
    (owned router);
  check_owned_total router source

(* Ownership is read from the shard backends, so a rename needs no
   bookkeeping: the renamed entry routes to its owner under the new DN,
   the old DN is gone everywhere, and a target only another shard
   holds is still seen. *)
let test_rename_keeps_routing () =
  let router, _, source = make_router ~shards:2 () in
  let csn i = Shard_master.csn (Router.shard router i) in
  let rdn s = match Dn.rdn_of_string s with Ok r -> r | Error e -> failwith e in
  let renamed = dn "cn=r1,ou=c1,o=shard" in
  ignore (must (route_apply router source (Update.modify_dn (emp_dn 1 0) (rdn "cn=r1"))));
  let lands_at_owner what op =
    let c0 = csn 0 and c1 = csn 1 in
    ignore (must (route_apply router source op));
    check_bool (what ^ " at the owner") true (Csn.( < ) c1 (csn 1));
    check_bool (what ^ " not at shard 0") true (Csn.equal (csn 0) c0)
  in
  lands_at_owner "modify"
    (Update.modify renamed [ Update.replace_values "telephonenumber" [ "555-9000" ] ]);
  let same_error op =
    match (Router.apply router op, Backend.apply source op) with
    | Error r, Error o -> Alcotest.(check string) "error as the single master" o r
    | _ -> Alcotest.fail "expected both to fail"
  in
  same_error (Update.delete (emp_dn 1 0));
  (* p0-0 lives at shard 0 only; the rename runs at shard 1. *)
  same_error (Update.modify_dn ~new_superior:(country_dn 0) renamed (rdn "cn=p0-0"));
  (match Router.apply router (Update.modify_dn ~new_superior:(country_dn 0) renamed (rdn "cn=p0-0")) with
  | Error e ->
      Alcotest.(check string) "target clash" "entry already exists: cn=p0-0,ou=c0,o=shard" e
  | Ok _ -> Alcotest.fail "rename onto another shard's DN succeeded");
  lands_at_owner "delete" (Update.delete renamed);
  check_bool "search = oracle" true (search_matches_oracle router source broadcast_query);
  check_owned_total router source

let test_structural_write () =
  let router, _, source = make_router ~shards:2 () in
  let extra =
    Entry.make (dn "ou=extra,o=shard")
      [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "extra" ]) ]
  in
  ignore (must (route_apply router source (Update.add extra)));
  Array.iter
    (fun i ->
      check_bool
        (Printf.sprintf "shard %d holds the scaffold" i)
        true
        (Backend.find
           (Shard_master.backend (Router.shard router i))
           (dn "ou=extra,o=shard")
        <> None))
    [| 0; 1 |];
  (* Served exactly once despite living everywhere. *)
  check_bool "one copy served" true
    (search_matches_oracle router source (Query.make ~base:root (f "(ou=extra)")));
  ignore (must (route_apply router source (Update.delete (dn "ou=extra,o=shard"))));
  check_bool "delete replicated" true
    (Backend.find (Shard_master.backend (Router.shard router 1)) (dn "ou=extra,o=shard")
    = None)

let test_geo_pruning_disabled_by_violation () =
  let router, _, source = make_router ~shards:2 () in
  let q = Query.make ~base:(country_dn 1) (f "(objectclass=inetOrgPerson)") in
  check_bool "pruning on" true (Router.report router).Router.rp_geo_pruning;
  Alcotest.(check (list int)) "pruned cover" [ 0; 1 ] (Router.cover router q);
  (* An employee filed under country 0 but keyed into country 3's block
     breaks the geography assumption; the router must stop pruning. *)
  let stray =
    Entry.make (dn "cn=stray,ou=c0,o=shard")
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ "stray" ]);
        ("sn", [ "stray" ]);
        ("serialNumber", [ serial 3 0 ]);
      ]
  in
  ignore (must (route_apply router source (Update.add stray)));
  check_bool "pruning off" false (Router.report router).Router.rp_geo_pruning;
  Alcotest.(check (list int)) "cover widened" [ 0; 1 ] (Router.cover router q);
  check_bool "stray still found" true
    (search_matches_oracle router source (serial_query 3))

(* A poll's cover is memoized with the geography flag it was planned
   under: once a write breaks geography, the next poll must contact
   the widened cover, or the consumer would miss the stray entry. *)
let test_poll_after_geo_violation_widens () =
  let router, transport, source = make_router ~shards:4 () in
  let q = Query.make ~base:(country_dn 1) (f "(objectclass=inetOrgPerson)") in
  let consumer = Consumer.create q in
  let contacts () = (Router.report router).Router.rp_poll_contacts in
  ignore (sync_router consumer transport router);
  let first = contacts () in
  check_int "pruned poll contacts shards 0 and 1" 2 first;
  ignore (sync_router consumer transport router);
  check_int "an idle poll reuses the pruned cover" 2 (contacts () - first);
  let stray =
    Entry.make (dn "cn=stray,ou=c1,o=shard")
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ "stray" ]);
        ("sn", [ "stray" ]);
        ("serialNumber", [ serial 3 0 ]);
      ]
  in
  ignore (must (route_apply router source (Update.add stray)));
  check_bool "pruning off" false (Router.report router).Router.rp_geo_pruning;
  let before = contacts () in
  ignore (sync_router consumer transport router);
  check_int "the next poll contacts every shard" 4 (contacts () - before);
  check_bool "stray entry reached the consumer" true
    (List.exists
       (fun e -> Dn.equal (Entry.dn e) (Entry.dn stray))
       (Consumer.entries consumer));
  check_bool "converged" true (consumer_matches_oracle consumer source)

(* --- ReSync through the router ------------------------------------------ *)

let sessions router i = Master.session_count (Shard_master.master (Router.shard router i))

let test_resync_single_shard_session () =
  let router, transport, source = make_router ~shards:2 () in
  let consumer = Consumer.create (serial_query 1) in
  let reply = sync_router consumer transport router in
  check_bool "initial" true (reply.Protocol.kind = Protocol.Initial_content);
  check_bool "content" true (consumer_matches_oracle consumer source);
  check_int "session only at the owner" 1 (sessions router 1);
  check_int "no session at shard 0" 0 (sessions router 0);
  let cookie = Option.get (Consumer.cookie consumer) in
  check_bool "composite cookie" true (is_composite_cookie cookie);
  check_bool "only the owner's component" true
    (Protocol.parse_composite_cookie cookie
    |> Option.get |> List.map fst = [ 1 ]);
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 2)
             [ Update.replace_values "telephonenumber" [ "555-1000" ] ])));
  let reply = sync_router consumer transport router in
  check_bool "incremental resume" true (reply.Protocol.kind = Protocol.Incremental);
  check_bool "converged" true (consumer_matches_oracle consumer source)

let test_resync_broadcast_and_sync_end () =
  let router, transport, source = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  check_int "sessions everywhere" 2 (sessions router 0 + sessions router 1);
  List.iter
    (fun (c, n) ->
      ignore
        (must
           (route_apply router source
              (Update.modify (emp_dn c n)
                 [ Update.replace_values "telephonenumber" [ "555-2000" ] ]))))
    [ (0, 0); (1, 1) ];
  let reply = sync_router consumer transport router in
  check_bool "merged incremental" true (reply.Protocol.kind = Protocol.Incremental);
  check_int "both shards' updates" 2 (List.length reply.Protocol.actions);
  check_bool "converged" true (consumer_matches_oracle consumer source);
  let cookie = Option.get (Consumer.cookie consumer) in
  (match
     Transport.exchange transport ~host:(Router.host router) ~from:"consumer"
       { Protocol.mode = Protocol.Sync_end; cookie = Some cookie }
       broadcast_query
   with
  | Ok _ -> ()
  | Error e -> failwith (Transport.error_to_string e));
  check_int "sessions ended" 0 (sessions router 0 + sessions router 1)

(* --- What a steady poll rebuilds ----------------------------------------- *)

let poll_cookie transport router q cookie =
  match
    Transport.exchange transport ~host:(Router.host router) ~from:"consumer"
      { Protocol.mode = Protocol.Poll; cookie = Some cookie }
      q
  with
  | Ok reply -> Option.get reply.Protocol.cookie
  | Error e -> failwith (Transport.error_to_string e)

let test_idle_poll_reuses_cookie () =
  let router, transport, _ = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  let c1 = Option.get (Consumer.cookie consumer) in
  let c2 = poll_cookie transport router broadcast_query c1 in
  check_bool "idle poll answers with the presented cookie" true (c2 == c1);
  let c3 = poll_cookie transport router broadcast_query c2 in
  check_bool "and so does the next" true (c3 == c2)

let test_noncanonical_cookie_reminted () =
  let router, transport, _ = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  let comps = Option.get (Protocol.parse_composite_cookie (Option.get (Consumer.cookie consumer))) in
  check_int "a component per shard" 2 (List.length comps);
  let spell fmt order =
    "rsm:" ^ String.concat "|" (List.map (fun (s, c) -> Printf.sprintf fmt s c) (order comps))
  in
  List.iter
    (fun (what, presented) ->
      Alcotest.(check string)
        (what ^ " cookie answered in canonical form")
        (Protocol.composite_cookie comps)
        (poll_cookie transport router broadcast_query presented))
    [ ("unsorted", spell "%d@%s" List.rev); ("zero-padded", spell "%02d@%s" Fun.id) ]

(* The restriction memo holds a subscribed query until its [Sync_end];
   queries whose sessions went without one never push it past the
   shard sessions plus its slack of 16. *)
let test_restriction_memo_bounded () =
  let router, transport, _ = make_router ~shards:2 () in
  let memo () = (Router.report router).Router.rp_restricted_queries in
  let ep = Option.get (Transport.endpoint transport (Router.host router)) in
  for i = 0 to 59 do
    let q = Query.make ~base:root (f (Printf.sprintf "(telephoneNumber=555-%04d)" i)) in
    let consumer = Consumer.create q in
    ignore (sync_router consumer transport router);
    let cookie = Option.get (Consumer.cookie consumer) in
    check_bool "subscribed query memoized" true (memo () >= 1);
    check_bool "memo within its bound" true
      (memo () <= sessions router 0 + sessions router 1 + 16);
    if i mod 2 = 0 then begin
      let before = memo () in
      (match
         Transport.exchange transport ~host:(Router.host router) ~from:"consumer"
           { Protocol.mode = Protocol.Sync_end; cookie = Some cookie }
           q
       with
      | Ok _ -> ()
      | Error e -> failwith (Transport.error_to_string e));
      check_int "sync_end drops the query" (before - 1) (memo ())
    end
    else ep.Transport.ep_abandon ~cookie
  done

let test_mixed_kind_escalation () =
  let router, transport, source = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  List.iter
    (fun (c, n) ->
      ignore
        (must
           (route_apply router source
              (Update.modify (emp_dn c n)
                 [ Update.replace_values "telephonenumber" [ "555-3000" ] ]))))
    [ (0, 1); (1, 2) ];
  (* Shard 1 forgets the session: its leg answers degraded while shard
     0 would answer incrementally.  The router must not merge the two
     as-is — the degraded leg prunes the consumer globally, which
     would discard shard 0's incremental update. *)
  let cookie = Option.get (Consumer.cookie consumer) in
  Ldap_resync.Server.abandon
    (Master.server (Shard_master.master (Router.shard router 1)))
    ~cookie:(Option.get (composite_component cookie ~shard:1));
  let reply = sync_router consumer transport router in
  check_bool "merged degraded" true (reply.Protocol.kind = Protocol.Degraded);
  check_bool "converged through escalation" true
    (consumer_matches_oracle consumer source);
  check_bool "escalation recorded" true
    ((Router.report router).Router.rp_escalations >= 1);
  (* The escalated session is live again: the next round is incremental. *)
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 0 1)
             [ Update.replace_values "telephonenumber" [ "555-3001" ] ])));
  let reply = sync_router consumer transport router in
  check_bool "incremental after escalation" true
    (reply.Protocol.kind = Protocol.Incremental);
  check_bool "still converged" true (consumer_matches_oracle consumer source)

(* The satellite regression: a consumer resuming after a partial
   fan-out failure must not acknowledge a shard CSN it never applied.
   Shard 1's reply is lost inside the fan-out (the shard processed the
   poll, so its session advanced); the merged incremental reply must
   carry shard 1's previous component, and the retry must deliver the
   missed update. *)
let test_partial_fanout_keeps_old_component () =
  let router, transport, source = make_router ~shards:2 () in
  let faults = Option.get (Transport.faults transport) in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  let before = Option.get (Consumer.cookie consumer) in
  let old_comp = Option.get (composite_component before ~shard:1) in
  List.iter
    (fun (c, n) ->
      ignore
        (must
           (route_apply router source
              (Update.modify (emp_dn c n)
                 [ Update.replace_values "telephonenumber" [ "555-4000" ] ]))))
    [ (0, 0); (1, 0) ];
  (* consumer→router delivered, router→shard-0 delivered, and the
     router→shard-1 reply dropped mid-fan-out. *)
  Network.Faults.script faults
    [ Network.Faults.Deliver; Network.Faults.Deliver; Network.Faults.Drop_reply ];
  let reply = sync_router consumer transport router in
  check_bool "partial merge is incremental" true
    (reply.Protocol.kind = Protocol.Incremental);
  check_int "partial merge recorded" 1 (Router.report router).Router.rp_partials;
  let after = Option.get (Consumer.cookie consumer) in
  Alcotest.(check (option string))
    "failed shard keeps its old component" (Some old_comp)
    (composite_component after ~shard:1);
  check_bool "shard 0's component advanced" true
    (composite_component after ~shard:0
    <> composite_component before ~shard:0);
  (* Shard 0's update applied; shard 1's is still outstanding. *)
  let phones dn_ =
    List.find_map
      (fun e -> if Dn.equal (Entry.dn e) dn_ then Some (Entry.get e "telephonenumber") else None)
      (Consumer.entries consumer)
  in
  check_bool "delivered leg applied" true (phones (emp_dn 0 0) = Some [ "555-4000" ]);
  check_bool "lost leg not applied" true (phones (emp_dn 1 0) <> Some [ "555-4000" ]);
  (* Healed retry: shard 1's session advanced past the old component's
     CSN, so it answers degraded from exactly what the consumer
     acknowledged — nothing is lost. *)
  ignore (sync_router consumer transport router);
  check_bool "retry converges" true (consumer_matches_oracle consumer source)

let test_pruning_reply_with_failed_shard_errors () =
  let router, transport, source = make_router ~shards:2 () in
  let faults = Option.get (Transport.faults transport) in
  let consumer = Consumer.create broadcast_query in
  (* First contact: both legs would answer Initial_content.  Losing a
     shard here must fail the whole poll — merging an initial reply
     without one shard's entries would present a hole as truth. *)
  Network.Faults.script faults
    [ Network.Faults.Deliver; Network.Faults.Deliver; Network.Faults.Drop_reply ];
  (match Consumer.sync_over ~max_attempts:1 consumer transport ~host:(Router.host router) with
  | Ok _ -> failwith "partial initial content must not merge"
  | Error _ -> ());
  check_bool "no cookie stored" true (Consumer.cookie consumer = None);
  (* The unscripted retry succeeds and converges. *)
  ignore (sync_router consumer transport router);
  check_bool "retry converges" true (consumer_matches_oracle consumer source)

let test_consumer_leg_drop_recovers () =
  let router, transport, source = make_router ~shards:2 () in
  let faults = Option.get (Transport.faults transport) in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 0 2)
             [ Update.replace_values "telephonenumber" [ "555-5000" ] ])));
  (* The merged reply is lost on the way back to the consumer after
     every shard advanced.  The consumer retries with its old
     composite; both shards answer the stale components degraded. *)
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  (match Consumer.sync_over consumer transport ~host:(Router.host router) with
  | Ok outcome -> check_bool "recovered by resync" true outcome.Consumer.resynced
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool "converged" true (consumer_matches_oracle consumer source)

let test_persist_through_router () =
  let router, transport, source = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  (match Consumer.connect_persist consumer transport ~host:(Router.host router) with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_int "persistent sessions everywhere" 2 (sessions router 0 + sessions router 1);
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 1)
             [ Update.replace_values "telephonenumber" [ "555-6000" ] ])));
  (* The relayed push is an event on the network's engine. *)
  Ldap_sim.Engine.run (Network.engine (Transport.network transport));
  check_bool "push relayed through router" true
    (consumer_matches_oracle consumer source);
  check_bool "connection alive" true (Consumer.persist_alive consumer)

let test_merkle_through_router () =
  let router, transport, source = make_router ~shards:2 () in
  let consumer = Consumer.create broadcast_query in
  ignore (sync_router consumer transport router);
  (* Drift accumulates while the consumer is offline; it reconciles by
     Merkle walk instead of polling, then resumes incrementally from
     the composite cookie the walk minted. *)
  List.iter
    (fun (c, n) ->
      ignore
        (must
           (route_apply router source
              (Update.modify (emp_dn c n)
                 [ Update.replace_values "telephonenumber" [ "555-7000" ] ]))))
    [ (0, 0); (0, 2); (1, 1) ];
  (match Consumer.merkle_sync consumer transport ~host:(Router.host router) with
  | Ok _ -> ()
  | Error e -> failwith e);
  check_bool "reconciled" true (consumer_matches_oracle consumer source);
  ignore
    (must
       (route_apply router source
          (Update.modify (emp_dn 1 2)
             [ Update.replace_values "telephonenumber" [ "555-7001" ] ])));
  let reply = sync_router consumer transport router in
  check_bool "minted cookie resumes incrementally" true
    (reply.Protocol.kind = Protocol.Incremental);
  check_bool "converged" true (consumer_matches_oracle consumer source)

(* A shard reopened after a crash is one [create]d as the lost one
   was, so it keeps the postings [~indexed] gave it. *)
let test_shard_reopen_keeps_postings () =
  let create () = Shard_master.create Schema.default ~indexed:[ "departmentnumber" ] ~id:0 in
  let live = create () in
  must (Shard_master.seed live ~contexts:[ org ] [ country_entry 0 ]);
  let medium = Medium.memory () in
  ignore (must (Shard_master.open_store live medium ~prefix:"shard-0"));
  for n = 0 to 2 do
    let dept = if n = 1 then "2" else "1" in
    ignore (must (Shard_master.apply live (Update.add (employee ~dept ~country:0 ~n ()))))
  done;
  Shard_master.checkpoint live;
  let postings sm =
    Content_store.posting_count
      (Backend.content_store (Shard_master.backend sm))
      (f "(departmentNumber=1)")
  in
  Alcotest.(check (option int)) "live postings" (Some 2) (postings live);
  Medium.crash medium;
  let reopened = create () in
  ignore (must (Shard_master.open_store reopened medium ~prefix:"shard-0"));
  let entries sm = Backend.total_entries (Shard_master.backend sm) in
  check_int "entries reopened" (entries live) (entries reopened);
  Alcotest.(check (option int)) "reopened postings" (Some 2) (postings reopened)

let test_shard_crash_recovery () =
  let router, transport, source = make_router ~shards:2 () in
  let medium = Medium.memory () in
  for i = 0 to 1 do
    ignore
      (must
         (Shard_master.open_store (Router.shard router i) medium
            ~prefix:(Printf.sprintf "shard-%d" i)))
  done;
  let consumer = Consumer.create (serial_query 1) in
  ignore (sync_router consumer transport router);
  let update n v =
    ignore
      (must
         (route_apply router source
            (Update.modify (emp_dn 1 n)
               [ Update.replace_values "telephonenumber" [ v ] ])))
  in
  update 0 "555-8000";
  ignore (sync_router consumer transport router);
  Shard_master.checkpoint (Router.shard router 1);
  update 1 "555-8001";
  update 2 "555-8002";
  (* Crash shard 1 and reopen its stores under a shard created as it
     was; the consumer's composite cookie must resume against the
     recovered master. *)
  let recovered = Shard_master.create Schema.default ~id:1 in
  let recovery = must (Shard_master.open_store recovered medium ~prefix:"shard-1") in
  check_bool "post-checkpoint WAL replayed" true
    (List.length recovery.Ldap_store.Store.records >= 2);
  Router.replace_shard router 1 recovered;
  (* Routing reads the recovered shard's content: a write to an entry
     it holds lands there and nowhere else. *)
  let csn0 = Shard_master.csn (Router.shard router 0) in
  let csn1 = Shard_master.csn recovered in
  update 2 "555-8003";
  check_bool "follow-up at the recovered shard" true
    (Csn.( < ) csn1 (Shard_master.csn recovered));
  check_bool "follow-up not at shard 0" true
    (Csn.equal (Shard_master.csn (Router.shard router 0)) csn0);
  check_owned_total router source;
  ignore (sync_router consumer transport router);
  check_bool "resumed consumer converged" true
    (consumer_matches_oracle consumer source);
  check_bool "router search intact" true
    (search_matches_oracle router source (serial_query 1));
  check_bool "other shard untouched" true
    (search_matches_oracle router source (serial_query 0))

(* --- Properties --------------------------------------------------------- *)

let filter_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun b -> Printf.sprintf "(serialNumber=%02d*)" b) (int_bound 4);
          map (fun d -> Printf.sprintf "(departmentNumber=%d00)" (1 + d)) (int_bound 1);
          return "(objectclass=inetOrgPerson)";
          return "(serialNumber=*)";
          map (fun (c, n) -> Printf.sprintf "(cn=p%d-%d)" c n)
            (pair (int_bound 3) (int_bound 2));
        ]
    in
    let ( let* ) = ( >>= ) in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 2,
                let* a = self (depth - 1) in
                let* b = self (depth - 1) in
                return (Printf.sprintf "(&%s%s)" a b) );
              ( 2,
                let* a = self (depth - 1) in
                let* b = self (depth - 1) in
                return (Printf.sprintf "(|%s%s)" a b) );
              ( 1,
                let* a = self (depth - 1) in
                return (Printf.sprintf "(!%s)" a) );
            ])
      2)

let cover_case_gen =
  QCheck.Gen.(
    triple (1 -- 4) filter_gen
      (oneof [ return None; map (fun c -> Some c) (int_bound 3) ]))

let prop_cover_sound_and_minimal =
  QCheck.Test.make ~name:"shard: covers are sound and provably minimal"
    ~count:200
    (QCheck.make ~print:(fun (s, f_, b) ->
         Printf.sprintf "shards=%d filter=%s base=%s" s f_
           (match b with None -> "root" | Some c -> Printf.sprintf "c%d" c))
       cover_case_gen)
    (fun (shards, filter_s, base_country) ->
      let source = build_source ~countries:4 ~per:3 in
      let p = make_partition ~countries:4 ~shards () in
      let base = match base_country with None -> root | Some c -> country_dn c in
      let q = Query.make ~base (f filter_s) in
      let cov = Partition.cover p q in
      (* The staged plan must agree with the uncached prover. *)
      if cov <> Partition.cover_uncached p q then false
      else
        let matching = oracle_search source q in
        (* Sound: every matching entry's owner is contacted. *)
        List.for_all
          (fun e ->
            let owner = Partition.of_entry p e in
            List.mem owner cov
            || (Partition.is_structural e && List.mem 0 cov))
          matching
        (* Minimal: no keyed shard in the cover is provably disjoint
           from the filter over its blocks. *)
        && List.for_all
             (fun s ->
               s = 0
               || not
                    (Containment.disjoint q.Query.filter
                       (Partition.ownership_filter p s)))
             cov)

(* A restriction is a merge, yet it must build exactly the normal
   form and program a fresh normalization and compile would: for every
   shard, over queries that overlap, repeat or contradict the ownership
   conjunct. *)
let restriction_filter_gen =
  QCheck.Gen.(
    oneof
      [
        filter_gen;
        map2
          (fun b q -> Printf.sprintf "(&(!(serialNumber=%02d*))%s)" b q)
          (int_bound 4) filter_gen;
        map2
          (fun (b, c) q -> Printf.sprintf "(&(|(serialNumber=%02d*)(serialNumber=%02d*))%s)" b c q)
          (pair (int_bound 4) (int_bound 4))
          filter_gen;
        return "(|(serialNumber=01*)(serialNumber=03*))";
        return "(!(|(serialNumber=01*)(serialNumber=02*)(serialNumber=03*)))";
      ])

let prop_restriction_is_normal_merge =
  QCheck.Test.make ~name:"partition: merged restriction = normalize (And [owns; q])"
    ~count:300
    (QCheck.make
       ~print:(fun (s, f_) -> Printf.sprintf "shards=%d filter=%s" s f_)
       QCheck.Gen.(pair (1 -- 4) restriction_filter_gen))
    (fun (shards, filter_s) ->
      let p = make_partition ~countries:4 ~shards () in
      let q = Query.make ~base:root (f filter_s) in
      List.for_all
        (fun s ->
          let r = Partition.restrict p s q in
          let expected =
            Filter.normalize
              (Filter.And [ (Partition.ownership_filter p s :> Filter.t); (q.Query.filter :> Filter.t) ])
          in
          (r.Query.filter :> Filter.t) = (expected :> Filter.t)
          && r.Query.prog = Some (Filter.compile (expected :> Filter.t)))
        (List.init shards Fun.id))

(* The program a restriction builds from its two compiled parts decides
   every enterprise entry as the interpreted filter does, for each of
   the workload's query kinds at each shard. *)
let test_restricted_program_matches () =
  let module E = Ldap_dirgen.Enterprise in
  let module W = Ldap_dirgen.Workload in
  let ent = E.build { E.default_config with E.employees = 400 } in
  let items = W.generate ent { W.default_config with W.length = 60 } in
  let entries = Backend.fold_entries (E.backend ent) ~init:[] ~f:(fun acc e -> e :: acc) in
  let p = Partition.of_enterprise ent ~shards:4 in
  let cases = ref 0 in
  Array.iter
    (fun (it : W.item) ->
      List.iter
        (fun q ->
          for s = 0 to 3 do
            let r = Partition.restrict p s q in
            let prog = Option.get r.Query.prog in
            List.iter
              (fun e ->
                incr cases;
                if
                  not
                    (Bool.equal
                       (Ldap_compile.Prog.matches prog (Entry.compiled e))
                       (Filter.matches (r.Query.filter :> Filter.t) e))
                then
                  Alcotest.failf "shard %d, %s: program disagrees on %s" s
                    (Query.to_string r) (Dn.to_string (Entry.dn e)))
              entries
          done)
        [ it.W.query; it.W.scoped ])
    items;
  check_bool "every kind checked" true (!cases > 0)

(* Random routed histories: the router over any shard count must be
   observationally equivalent to a single master over the same
   backend, for searches and for a subscribed consumer, under every
   history strategy. *)
type sim_op =
  | Op_phone of int
  | Op_rekey of int * int
  | Op_add of int * int * int
  | Op_del of int
  | Op_rename of int * int
  | Op_poll
  | Op_resubscribe

let sim_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Op_phone i) (int_bound 8));
        (2, map (fun (i, b) -> Op_rekey (i, b)) (pair (int_bound 8) (int_bound 4)));
        (2, map (fun (k, (c, b)) -> Op_add (k, c, b))
             (pair (int_bound 2) (pair (int_bound 2) (int_bound 4))));
        (1, map (fun i -> Op_del i) (int_bound 8));
        (1, map (fun (i, k) -> Op_rename (i, k)) (pair (int_bound 8) (int_bound 2)));
        (3, return Op_poll);
        (1, return Op_resubscribe);
      ])

let sim_update = function
  | Op_phone i ->
      Update.modify (emp_dn (i / 3) (i mod 3))
        [ Update.replace_values "telephonenumber" [ Printf.sprintf "555-%04d" i ] ]
  | Op_rekey (i, b) ->
      Update.modify (emp_dn (i / 3) (i mod 3))
        [ Update.replace_values "serialnumber" [ serial b (100 + i) ] ]
  | Op_add (k, c, b) ->
      Update.add
        (Entry.make
           (dn (Printf.sprintf "cn=x%d,ou=c%d,o=shard" k c))
           [
             ("objectclass", [ "inetOrgPerson" ]);
             ("cn", [ Printf.sprintf "x%d" k ]);
             ("sn", [ Printf.sprintf "x%d" k ]);
             ("serialNumber", [ serial b (200 + k) ]);
           ])
  | Op_del i -> Update.delete (emp_dn (i / 3) (i mod 3))
  | Op_rename (i, k) ->
      Update.modify_dn (emp_dn (i / 3) (i mod 3))
        (match Dn.rdn_of_string (Printf.sprintf "cn=r%d" k) with
        | Ok r -> r
        | Error e -> failwith e)
  | Op_poll | Op_resubscribe -> assert false

let equiv_case_gen =
  QCheck.Gen.(
    QCheck.Gen.map
      (fun (((shards, strat), qk), ops) -> (shards, strat, qk, ops))
      (pair
         (pair (pair (1 -- 4) (int_bound 2)) (int_bound 3))
         (list_size (0 -- 14) sim_op_gen)))

let equiv_query = function
  | 0 -> serial_query 1
  | 1 -> broadcast_query
  | 2 -> Query.make ~base:root (f "(departmentNumber=100)")
  | _ -> Query.make ~base:root (f "(&(serialNumber=00*)(objectclass=inetOrgPerson))")

let prop_router_equals_single_master =
  QCheck.Test.make
    ~name:"shard: router ≡ single master under every history strategy"
    ~count:120
    (QCheck.make ~print:(fun (s, st, qk, ops) ->
         let op_name = function
           | Op_phone i -> Printf.sprintf "phone %d" i
           | Op_rekey (i, b) -> Printf.sprintf "rekey %d->%d" i b
           | Op_add (k, c, b) -> Printf.sprintf "add %d@c%d:%d" k c b
           | Op_del i -> Printf.sprintf "del %d" i
           | Op_rename (i, k) -> Printf.sprintf "rename %d->r%d" i k
           | Op_poll -> "poll"
           | Op_resubscribe -> "resubscribe"
         in
         Printf.sprintf "shards=%d strategy=%d query=%d ops=[%s]" s st qk
           (String.concat "; " (List.map op_name ops)))
       equiv_case_gen)
    (fun (shards, strat, qk, ops) ->
      let strategy =
        match strat with
        | 0 -> Master.Session_history
        | 1 -> Master.Changelog
        | _ -> Master.Tombstone
      in
      let router, transport, source = make_router ~countries:3 ~strategy ~shards () in
      let oracle_master = Master.create ~strategy source in
      let oracle = Net_fixture.transport_of oracle_master in
      let q = equiv_query qk in
      let rc = ref (Consumer.create q) in
      let oc = ref (Consumer.create q) in
      let sync_both () =
        (match Consumer.sync_over !rc transport ~host:(Router.host router) with
        | Ok _ -> ()
        | Error e -> failwith (Consumer.sync_error_to_string e));
        (match Net_fixture.poll oracle !oc with
        | Ok _ -> ()
        | Error e -> failwith e);
        entries_equal (Consumer.entries !rc) (Consumer.entries !oc)
      in
      (* Both consumers end their sessions and subscribe afresh: the
         router rebuilds the restrictions its [Sync_end] dropped. *)
      let resubscribe () =
        let sync_end c = { Protocol.mode = Protocol.Sync_end; cookie = Consumer.cookie c } in
        (match Transport.exchange transport ~host:(Router.host router) (sync_end !rc) q with
        | Ok _ -> ()
        | Error e -> failwith (Transport.error_to_string e));
        (match Master.handle oracle_master (sync_end !oc) q with
        | Ok _ -> ()
        | Error e -> failwith e);
        rc := Consumer.create q;
        oc := Consumer.create q;
        sync_both ()
      in
      sync_both ()
      && List.for_all
           (fun op ->
             match op with
             | Op_poll -> sync_both ()
             | Op_resubscribe -> resubscribe ()
             | _ ->
                 let u = sim_update op in
                 (match (Router.apply router u, Backend.apply source u) with
                 | Ok _, Ok _ | Error _, Error _ -> true
                 | _ -> false)
                 && search_matches_oracle router source q)
           ops
      && sync_both ()
      && search_matches_oracle router source broadcast_query)

let suite =
  [
    Alcotest.test_case "composite cookie" `Quick test_composite_cookie;
    Alcotest.test_case "partition keys" `Quick test_partition_keys;
    Alcotest.test_case "single-block cover" `Quick test_cover_single_block;
    Alcotest.test_case "broadcast+conjunction cover" `Quick
      test_cover_broadcast_and_conjunction;
    Alcotest.test_case "geography cover" `Quick test_cover_geography;
    Alcotest.test_case "plan cache" `Quick test_plan_cache;
    Alcotest.test_case "search matches oracle" `Quick test_search_matches_oracle;
    Alcotest.test_case "write routing" `Quick test_write_routing;
    Alcotest.test_case "ownership move" `Quick test_ownership_move;
    Alcotest.test_case "rename keeps routing" `Quick test_rename_keeps_routing;
    Alcotest.test_case "structural write" `Quick test_structural_write;
    Alcotest.test_case "geo pruning disabled" `Quick
      test_geo_pruning_disabled_by_violation;
    Alcotest.test_case "poll after a geography break widens its cover" `Quick
      test_poll_after_geo_violation_widens;
    Alcotest.test_case "restricted program = Filter.matches" `Quick
      test_restricted_program_matches;
    Alcotest.test_case "resync single shard" `Quick test_resync_single_shard_session;
    Alcotest.test_case "resync broadcast+sync_end" `Quick
      test_resync_broadcast_and_sync_end;
    Alcotest.test_case "idle poll reuses cookie" `Quick test_idle_poll_reuses_cookie;
    Alcotest.test_case "non-canonical cookie reminted" `Quick
      test_noncanonical_cookie_reminted;
    Alcotest.test_case "restriction memo bounded" `Quick test_restriction_memo_bounded;
    Alcotest.test_case "mixed-kind escalation" `Quick test_mixed_kind_escalation;
    Alcotest.test_case "partial fan-out keeps old component" `Quick
      test_partial_fanout_keeps_old_component;
    Alcotest.test_case "partial initial refuses" `Quick
      test_pruning_reply_with_failed_shard_errors;
    Alcotest.test_case "consumer leg drop" `Quick test_consumer_leg_drop_recovers;
    Alcotest.test_case "persist through router" `Quick test_persist_through_router;
    Alcotest.test_case "merkle through router" `Quick test_merkle_through_router;
    Alcotest.test_case "shard crash recovery" `Quick test_shard_crash_recovery;
    Alcotest.test_case "reopened shard keeps postings" `Quick test_shard_reopen_keeps_postings;
    QCheck_alcotest.to_alcotest prop_cover_sound_and_minimal;
    QCheck_alcotest.to_alcotest prop_restriction_is_normal_merge;
    QCheck_alcotest.to_alcotest prop_router_equals_single_master;
  ]
