(* Crash/restart recovery across the stack: backend snapshot+WAL
   round trips, a restarted master that still recognizes its cookies,
   the consumer's cookie+content atomicity boundary (every WAL prefix
   recovers to a state one poll away from convergence), observational
   equivalence of interrupted and uninterrupted runs under all three
   history strategies, topology-level crash/restart, and for each
   durable role a "reopened = live" property over two crashes. *)
open Ldap
open Ldap_resync
module Store = Ldap_store
module R = Ldap_replication
module T = Ldap_topology

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "7") () =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("departmentNumber", [ dept ]);
    ]

let make_backend () =
  let b = Backend.create ~indexed:[ "departmentnumber" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

let apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e
let must = function Ok v -> v | Error e -> failwith e

let dept_query d =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s)" d))

let canon entries =
  List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) entries

let entry_sets_equal consumer backend query =
  let expected = canon (Content.current backend query) in
  let actual = canon (Consumer.entries consumer) in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal expected actual

let transport_of = Net_fixture.transport_of

let poll tr consumer =
  match Net_fixture.poll tr consumer with
  | Ok reply -> reply
  | Error e -> failwith e

(* A restart: a role created as the lost one was, opened over the
   store it left. *)
let reopen_backend store =
  let b = Backend.create ~indexed:[ "departmentnumber" ] () in
  let _, recovery = must (Store.Backend_store.open_store b store) in
  (b, recovery)

let reopen_consumer q store =
  let c = Consumer.create q in
  (c, must (Consumer.open_store c store))

let reopen_replica live m ~prefix =
  let r =
    R.Filter_replica.create_over (R.Filter_replica.transport live)
      ~master_host:(R.Filter_replica.master_host live)
  in
  (r, must (R.Filter_replica.open_store r m ~prefix))

let open_backend b m =
  fst (must (Store.Backend_store.open_store b (Store.Store.create m ~name:"backend")))

(* --- Backend recovery ------------------------------------------------- *)

let test_backend_recovery () =
  let b = make_backend () in
  let m = Store.Medium.memory () in
  let bs = open_backend b m in
  apply b (Update.add (person "alice" ()));
  apply b (Update.add (person "bob" ~dept:"8" ()));
  Store.Backend_store.checkpoint bs;
  apply b (Update.add (person "carol" ()));
  apply b
    (Update.modify (dn "cn=alice,o=xyz")
       [ Update.replace_values "departmentNumber" [ "9" ] ]);
  apply b (Update.delete (dn "cn=bob,o=xyz"));
  Store.Medium.crash m;
  let b2, recovery = reopen_backend (Store.Store.create m ~name:"backend") in
  check_int "post-checkpoint commits replayed" 3
    (List.length recovery.Store.Store.records);
  check_bool "snapshot present" true (recovery.Store.Store.snapshot <> None);
  check_int "entry count survives" (Backend.total_entries b)
    (Backend.total_entries b2);
  check_bool "CSN survives" true (Csn.equal (Backend.csn b) (Backend.csn b2));
  List.iter
    (fun d ->
      let q = dept_query d in
      let expected = canon (Content.current b q) in
      let actual = canon (Content.current b2 q) in
      check_bool ("search equal in dept " ^ d) true
        (List.length expected = List.length actual
        && List.for_all2 Entry.equal expected actual))
    [ "7"; "8"; "9" ]

(* A short read hands recovery a prefix of a file.  Taken as the whole
   file it looks like a torn tail: the WAL would be cut back and synced
   records lost, or the snapshot would fail its checksum. *)
let test_short_read_recovery () =
  let rng = Random.State.make [| 7 |] in
  let faults =
    Store.Medium.Faults.create ~short_read:0.5 ~roll:(fun () -> Random.State.float rng 1.0) ()
  in
  let m = Store.Medium.memory ~faults () in
  let b = make_backend () in
  let bs = open_backend b m in
  apply b (Update.add (person "alice" ()));
  Store.Backend_store.checkpoint bs;
  for i = 1 to 10 do
    apply b (Update.add (person (Printf.sprintf "p%d" i) ~dept:(string_of_int (7 + (i mod 3))) ()))
  done;
  let wal_size = Store.Medium.size m ~name:"backend.wal" in
  for _ = 1 to 4 do
    let b2, r = reopen_backend (Store.Store.create m ~name:"backend") in
    check_bool "no tail cut" false r.Store.Store.truncated;
    check_int "all ten records replayed" 10 (List.length r.Store.Store.records);
    check_int "the WAL keeps its size" wal_size (Store.Medium.size m ~name:"backend.wal");
    check_bool "CSN survives" true (Csn.equal (Backend.csn b) (Backend.csn b2));
    List.iter
      (fun d ->
        let q = dept_query d in
        check_bool ("recovered = live in dept " ^ d) true
          (List.equal Entry.equal (canon (Content.current b q)) (canon (Content.current b2 q))))
      [ "7"; "8"; "9" ]
  done

let unit_entry name =
  Entry.make (dn (Printf.sprintf "ou=%s,o=xyz" name))
    [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ name ]) ]

let member name unit_name =
  Entry.make
    (dn (Printf.sprintf "cn=%s,ou=%s,o=xyz" name unit_name))
    [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ name ]); ("sn", [ name ]);
      ("departmentNumber", [ "7" ]) ]

let slot_order b =
  List.rev (Backend.fold_entries b ~init:[] ~f:(fun acc e -> Dn.canonical (Entry.dn e) :: acc))

let search_order b query =
  match Backend.search b query with
  | Ok { Backend.entries; _ } -> List.map (fun e -> Dn.canonical (Entry.dn e)) entries
  | Error _ -> []

let recover_backend m = fst (reopen_backend (Store.Store.create m ~name:"backend"))

(* RFC 4511 section 4.9: a modifyDN with deleteoldrdn FALSE keeps the
   old RDN value in the renamed entry, and so must every copy of it. *)
let test_modify_dn_keeps_old_rdn () =
  let b = make_backend () in
  let m = Store.Medium.memory () in
  let bs = open_backend b m in
  apply b (Update.add (person "alice" ()));
  Store.Backend_store.checkpoint bs;
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll tr consumer);
  let new_rdn = match Dn.rdn_of_string "cn=alicia" with Ok r -> r | Error e -> failwith e in
  apply b (Update.modify_dn ~delete_old_rdn:false (dn "cn=alice,o=xyz") new_rdn);
  let renamed = dn "cn=alicia,o=xyz" in
  let live = Option.get (Backend.find b renamed) in
  check_bool "new rdn value" true (Entry.has_value live "cn" "alicia");
  check_bool "old rdn value kept" true (Entry.has_value live "cn" "alice");
  ignore (poll tr consumer);
  check_bool "the consumer's copy keeps it" true
    (List.exists
       (fun e -> Dn.equal (Entry.dn e) renamed && Entry.has_value e "cn" "alice")
       (Consumer.entries consumer));
  check_bool "consumer converged" true (entry_sets_equal consumer b (dept_query "7"));
  Store.Medium.crash m;
  let b2 = recover_backend m in
  check_bool "WAL replay = live" true
    (Option.equal Entry.equal (Some live) (Backend.find b2 renamed));
  check_bool "old DN gone after replay" true (Backend.find b2 (dn "cn=alice,o=xyz") = None)

let test_snapshot_slot_order () =
  (* Deletes and a modifyDN leave slot order unlike RDN order: ou=b
     precedes ou=a, a re-added y keeps its slot, a moved z takes a new
     one. *)
  let b = make_backend () in
  List.iter (apply b)
    [
      Update.add (unit_entry "b");
      Update.add (unit_entry "a");
      Update.add (member "z" "b");
      Update.add (member "y" "a");
      Update.add (member "x" "a");
      Update.delete (dn "cn=y,ou=a,o=xyz");
      Update.add (member "y" "a");
      Update.modify_dn ~new_superior:(dn "ou=a,o=xyz") (dn "cn=z,ou=b,o=xyz")
        (Result.get_ok (Dn.rdn_of_string "cn=z"));
      Update.delete (dn "cn=x,ou=a,o=xyz");
    ];
  Alcotest.(check (list string))
    "live slot order"
    [ "o=xyz"; "ou=b,o=xyz"; "ou=a,o=xyz"; "cn=y,ou=a,o=xyz"; "cn=z,ou=a,o=xyz" ]
    (slot_order b);
  let m = Store.Medium.memory () in
  (* Opening the empty store checkpoints the populated backend. *)
  ignore (open_backend b m);
  apply b (Update.add (member "w" "b"));
  Store.Medium.crash m;
  let b2 = recover_backend m in
  Alcotest.(check (list string)) "slot order recovered" (slot_order b) (slot_order b2);
  check_bool "CSN recovered" true (Csn.equal (Backend.csn b) (Backend.csn b2));
  List.iter
    (fun query ->
      Alcotest.(check (list string))
        (Query.to_string query) (search_order b query) (search_order b2 query))
    [ dept_query "7"; Query.make ~base:(dn "o=xyz") (f "(|(cn=*)(ou=*))") ]

let test_restore_rdn_ordered_image () =
  (* Images written before slot order were depth-first with siblings in
     RDN order; they still restore, in image order. *)
  let image_entries =
    [ org; unit_entry "a"; member "y" "a"; member "z" "a"; unit_entry "b"; member "w" "b" ]
  in
  let module DW = Ber_codec.Der.W in
  let m = Store.Medium.memory () in
  (* SEQUENCE { csn, floor, SEQUENCE { SEQUENCE { entries } }, SEQUENCE {} },
     written backwards. *)
  Store.Store.checkpoint_w (Store.Store.create m ~name:"backend") (fun w ->
      let image = DW.mark w in
      DW.close_seq w (DW.mark w);
      let contexts = DW.mark w in
      let entries = DW.mark w in
      List.iter (DW.entry w) (List.rev image_entries);
      DW.close_seq w entries;
      DW.close_seq w contexts;
      (* CSNs are DER INTEGERs. *)
      DW.integer w 0;
      DW.integer w 6;
      DW.close_seq w image;
      (0, 0));
  let b = recover_backend m in
  Alcotest.(check (list string))
    "image order" (List.map (fun e -> Dn.canonical (Entry.dn e)) image_entries) (slot_order b);
  check_int "one level under a" 2
    (List.length
       (search_order b (Query.make ~scope:Scope.One ~base:(dn "ou=a,o=xyz") (f "(cn=*)"))));
  check_int "postings restored" 3 (List.length (search_order b (dept_query "7")));
  apply b (Update.delete (dn "cn=w,ou=b,o=xyz"));
  apply b (Update.delete (dn "ou=b,o=xyz"));
  check_int "child links restored" 4 (Backend.total_entries b)

(* --- Master recovery -------------------------------------------------- *)

let test_master_recovery_keeps_sessions () =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let m = Store.Medium.memory () in
  ignore (must (Master.open_store master (Store.Store.create m ~name:"master")));
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll tr consumer);
  apply b (Update.add (person "dave" ()));
  ignore (poll tr consumer);
  apply b (Update.add (person "erin" ()));
  Store.Medium.crash m;
  let master2 = Master.create b in
  ignore (must (Master.open_store master2 (Store.Store.create m ~name:"master")));
  (* The restarted master takes the old one's place on the network and
     still recognizes the cookie it handed out: the next poll replays
     incrementally instead of resyncing. *)
  Transport.add_master tr ~name:Net_fixture.host master2;
  let reply = poll tr consumer in
  check_bool "incremental resume after master restart" true
    (reply.Protocol.kind = Protocol.Incremental);
  check_bool "consumer converged" true (entry_sets_equal consumer b (dept_query "7"))

let test_master_cold_cookie_degrades () =
  (* Without durable session state the same restart forces a resync —
     the contrast that motivates journaling the session table. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll tr consumer);
  apply b (Update.add (person "dave" ()));
  let master2 = Master.create b in
  Transport.add_master tr ~name:Net_fixture.host master2;
  let reply = poll tr consumer in
  check_bool "unknown cookie cannot resume incrementally" true
    (reply.Protocol.kind <> Protocol.Incremental);
  check_bool "still converges" true (entry_sets_equal consumer b (dept_query "7"))

(* --- Consumer: a no-op reply is not journaled ------------------------- *)

(* An incremental reply with no action whose cookie is absent or the
   one held changes nothing, so it leaves the WAL as it is; a reopen
   still equals the live consumer.  A reply that moves the cookie is
   journaled. *)
let test_consumer_skips_no_op_replies () =
  let q = dept_query "7" in
  let c = Consumer.create q in
  let m = Store.Medium.memory () in
  ignore (must (Consumer.open_store c (Store.Store.create m ~name:"c")));
  let reply ?(actions = []) cookie =
    Consumer.apply_reply c (Protocol.reply ~kind:Protocol.Incremental ~actions ~cookie)
  in
  let wal () = Option.value (Store.Medium.read m ~name:"c.wal") ~default:"" in
  reply ~actions:[ Action.Add (person "alice" ()) ] (Some "rs:1:1");
  let before = wal () in
  reply (Some "rs:1:1");
  reply None;
  Alcotest.(check string) "no-op replies leave the WAL unchanged" before (wal ());
  let reopened, _ = reopen_consumer q (Store.Store.create m ~name:"c") in
  check_bool "reopen = live: cookie" true (Consumer.cookie reopened = Consumer.cookie c);
  check_bool "reopen = live: content" true
    (let a = canon (Consumer.entries reopened) and b = canon (Consumer.entries c) in
     List.length a = List.length b && List.for_all2 Entry.equal a b);
  reply (Some "rs:1:2");
  check_bool "a cookie move is journaled" true (String.length (wal ()) > String.length before);
  let reopened, _ = reopen_consumer q (Store.Store.create m ~name:"c") in
  check_bool "reopen = live: moved cookie" true (Consumer.cookie reopened = Some "rs:1:2")

(* --- Consumer atomicity: every WAL prefix is consistent --------------- *)

let test_consumer_every_prefix_consistent () =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let q = dept_query "7" in
  let consumer = Consumer.create q in
  let m = Store.Medium.memory () in
  ignore (must (Consumer.open_store consumer (Store.Store.create m ~name:"c")));
  ignore (poll tr consumer);
  apply b (Update.add (person "dave" ()));
  apply b (Update.delete (dn "cn=alice,o=xyz"));
  ignore (poll tr consumer);
  apply b (Update.add (person "erin" ()));
  apply b
    (Update.modify (dn "cn=dave,o=xyz")
       [ Update.replace_values "departmentNumber" [ "8" ] ]);
  ignore (poll tr consumer);
  let wal = Option.get (Store.Medium.read m ~name:"c.wal") in
  (* The empty consumer's image, which opening the store wrote. *)
  let snap = Option.get (Store.Medium.read m ~name:"c.snap") in
  (* Cookie and content travel in one WAL record, so any byte-prefix
     of the journal — any crash point — recovers to a state the master
     can bring to convergence in a single poll.  A cookie journaled
     ahead of its content would make the resumed session skip those
     actions forever. *)
  for cut = 0 to String.length wal do
    let m2 = Store.Medium.memory () in
    Store.Medium.write_atomic_sub m2 ~name:"c.snap" (Bytes.of_string snap) ~pos:0
      ~len:(String.length snap);
    Store.Medium.append m2 ~name:"c.wal" (String.sub wal 0 cut);
    Store.Medium.sync m2 ~name:"c.wal";
    let recovered, _ = reopen_consumer q (Store.Store.create m2 ~name:"c") in
    ignore (poll tr recovered);
    if not (entry_sets_equal recovered b q) then
      Alcotest.failf "prefix of %d bytes did not reconverge" cut
  done

(* --- Interrupted ≡ uninterrupted, all three strategies ----------------- *)

let strategy_name = function
  | Master.Session_history -> "session history"
  | Master.Changelog -> "changelog"
  | Master.Tombstone -> "tombstone"

let phase1 b =
  apply b (Update.add (person "dave" ()));
  apply b (Update.delete (dn "cn=alice,o=xyz"));
  apply b (Update.add (person "erin" ~dept:"8" ()))

let phase2 b =
  apply b (Update.add (person "fred" ()));
  apply b
    (Update.modify (dn "cn=erin,o=xyz")
       [ Update.replace_values "departmentNumber" [ "7" ] ]);
  apply b (Update.delete (dn "cn=dave,o=xyz"))

let run_strategy strategy ~interrupt =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create ~strategy b in
  let tr = transport_of master in
  let q = dept_query "7" in
  let consumer = Consumer.create q in
  let m = Store.Medium.memory () in
  ignore (must (Consumer.open_store consumer (Store.Store.create m ~name:"c")));
  ignore (poll tr consumer);
  phase1 b;
  ignore (poll tr consumer);
  let consumer =
    if interrupt then begin
      (* Crash after the second poll: recovery resumes from the
         durable cookie, not from scratch. *)
      Store.Medium.crash m;
      Consumer.detach_store consumer;
      let recovered, recovery = reopen_consumer q (Store.Store.create m ~name:"c") in
      check_bool
        (strategy_name strategy ^ ": journal replayed on recovery")
        true
        (recovery.Store.Store.records <> []);
      recovered
    end
    else consumer
  in
  phase2 b;
  ignore (poll tr consumer);
  check_bool (strategy_name strategy ^ ": converged") true
    (entry_sets_equal consumer b q);
  canon (Consumer.entries consumer)

let test_interrupted_equals_uninterrupted () =
  List.iter
    (fun strategy ->
      let plain = run_strategy strategy ~interrupt:false in
      let resumed = run_strategy strategy ~interrupt:true in
      check_bool
        (strategy_name strategy ^ ": interrupted run observationally equal")
        true
        (List.length plain = List.length resumed
        && List.for_all2 Entry.equal plain resumed))
    [ Master.Session_history; Master.Changelog; Master.Tombstone ]

(* --- Topology crash/restart ------------------------------------------- *)

let build_directory () =
  let b = make_backend () in
  for d = 1 to 4 do
    for i = 1 to 3 do
      apply b
        (Update.add
           (person (Printf.sprintf "p%d_%d" d i) ~dept:(string_of_int d) ()))
    done
  done;
  b

let build_star () =
  let b = build_directory () in
  let leaf_queries = List.init 4 (fun i -> dept_query (string_of_int (i + 1))) in
  (b, must (T.Topology.build ~shape:T.Topology.Star ~covers:[] ~leaf_queries b))

let test_topology_durable_restart () =
  let b, t = build_star () in
  T.Topology.enable_durability t;
  let victim = List.hd (T.Topology.leaves t) in
  let name = T.Leaf.name victim in
  T.Topology.crash_leaf t victim;
  check_bool "victim listed as down" false
    (List.exists (fun l -> T.Leaf.name l = name) (T.Topology.leaves t));
  check_int "leaf gone from the live set" 3 (List.length (T.Topology.leaves t));
  apply b (Update.add (person "while_down" ~dept:"1" ()));
  let leaf, report = must (T.Topology.restart_leaf t ~name) in
  check_bool "durable restart carries a recovery report" true (report <> None);
  check_int "no leaf down anymore" 4 (List.length (T.Topology.leaves t));
  (match report with
  | Some r ->
      check_bool "subscription recovered from the slot table" true
        (List.length r.R.Filter_replica.filters = 1);
      check_bool "resume cookie was durable" true
        (List.for_all
           (fun (fr : R.Filter_replica.filter_recovery) ->
             fr.R.Filter_replica.fr_cookie <> None)
           r.R.Filter_replica.filters)
  | None -> ());
  T.Topology.sync_round t;
  check_bool "restarted leaf converges on the missed update" true
    (T.Topology.leaf_converged t leaf)

let test_topology_cold_restart () =
  let b, t = build_star () in
  let victim = List.hd (T.Topology.leaves t) in
  let name = T.Leaf.name victim in
  T.Topology.crash_leaf t victim;
  apply b (Update.add (person "while_down" ~dept:"1" ()));
  let leaf, report = must (T.Topology.restart_leaf t ~name) in
  check_bool "cold restart has no recovery report" true (report = None);
  T.Topology.sync_round t;
  check_bool "cold restart re-subscribes and converges" true
    (T.Topology.leaf_converged t leaf)

(* A cold restart of a durable leaf journals onto a fresh medium, so a
   later resume comes back with what the cold leaf acknowledged, not
   with the image the first crash left. *)
let test_topology_cold_then_resume () =
  let b, t = build_star () in
  T.Topology.enable_durability t;
  let q = dept_query "1" in
  let leaf_of () =
    List.find (fun l -> List.exists (Query.equal q) (T.Leaf.subscriptions l)) (T.Topology.leaves t)
  in
  let name = T.Leaf.name (leaf_of ()) in
  T.Topology.crash_leaf t (leaf_of ());
  ignore (must (T.Topology.restart_leaf ~mode:T.Topology.Cold t ~name));
  apply b (Update.add (person "cold1" ~dept:"1" ()));
  apply b (Update.add (person "cold2" ~dept:"1" ()));
  T.Topology.sync_round t;
  let before = leaf_of () in
  let acked = T.Leaf.acked_csn before in
  let entries = List.length (T.Leaf.content before q) in
  check_int "the cold leaf caught up" (Csn.to_int (Backend.csn b)) (Csn.to_int acked);
  T.Topology.crash_leaf t before;
  let leaf, report = must (T.Topology.restart_leaf ~mode:T.Topology.Resume t ~name) in
  check_bool "durable restart" true (report <> None);
  check_int "acked CSN survives" (Csn.to_int acked) (Csn.to_int (T.Leaf.acked_csn leaf));
  check_int "entries survive" entries (List.length (T.Leaf.content leaf q))

let test_topology_restart_errors () =
  let _, t = build_star () in
  let victim = List.hd (T.Topology.leaves t) in
  check_bool "restarting a live leaf is an error" true
    (match T.Topology.restart_leaf t ~name:(T.Leaf.name victim) with
    | Error _ -> true
    | Ok _ -> false);
  T.Topology.crash_leaf t victim;
  check_bool "crashing a down leaf is an error" true
    (match T.Topology.crash_leaf t victim with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- Checkpoint crash window ------------------------------------------ *)

let test_checkpoint_crash_window_resyncs () =
  (* A crash between the snapshot rename and the WAL reset leaves the
     snapshot one generation ahead of the surviving log.  Recovery must
     discard the stale records, treat the store as damaged and repair
     the replica against the master before it serves reads — the
     durable cookie must never run ahead of the recovered content. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let replica = Net_fixture.replica_of master in
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"replica"));
  must (R.Filter_replica.install_filter replica (dept_query "7"));
  R.Filter_replica.sync replica;
  R.Filter_replica.checkpoint replica;
  (* Updates journaled after the checkpoint: the crash window below
     leaves them behind as a previous-generation log. *)
  apply b (Update.add (person "dave" ()));
  R.Filter_replica.sync replica;
  let wal = Option.get (Store.Medium.read m ~name:"replica.f0.wal") in
  R.Filter_replica.checkpoint replica;
  (* Crash window: the checkpoint installed its snapshot but died
     before resetting the log — restore the pre-checkpoint WAL under
     the new snapshot. *)
  Store.Medium.truncate m ~name:"replica.f0.wal" 0;
  Store.Medium.append m ~name:"replica.f0.wal" wal;
  Store.Medium.sync m ~name:"replica.f0.wal";
  R.Filter_replica.detach_store replica;
  (* The master moves on while the replica is down. *)
  apply b (Update.add (person "erin" ()));
  let replica2, report = reopen_replica replica m ~prefix:"replica" in
  (match report.R.Filter_replica.filters with
  | [ fr ] ->
      check_bool "stale-generation records discarded" true
        (fr.R.Filter_replica.fr_stale > 0);
      check_bool "recovery forced a resync" true
        (Option.is_some fr.R.Filter_replica.fr_resync)
  | frs -> Alcotest.failf "expected one filter recovery, got %d" (List.length frs));
  (* The repair ran before the replica could serve: content already
     matches the master including the missed update. *)
  let c = Option.get (R.Filter_replica.consumer_for replica2 (dept_query "7")) in
  check_bool "content caught up before serving" true
    (entry_sets_equal c b (dept_query "7"));
  (* And the fresh cookie is coherent: the next poll is an incremental
     no-op, not a degraded resync. *)
  apply b (Update.add (person "frank" ()));
  R.Filter_replica.sync replica2;
  check_bool "cookie resumes incrementally" true (entry_sets_equal c b (dept_query "7"))

let test_lost_consumer_store_resyncs () =
  (* Every slot is checkpointed when it is installed or attached, so a
     slot whose snapshot and log are both gone lost its files.
     Recovery must repair it before it serves reads, not answer from
     the empty content an absent store recovers to. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  apply b (Update.add (person "bob" ()));
  let replica = Net_fixture.replica_of (Master.create b) in
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"r"));
  let q = dept_query "7" in
  must (R.Filter_replica.install_filter replica q);
  R.Filter_replica.detach_store replica;
  (* The meta store survives; the slot's consumer store does not. *)
  Store.Medium.remove m ~name:"r.f0.snap";
  Store.Medium.remove m ~name:"r.f0.wal";
  let replica2, report = reopen_replica replica m ~prefix:"r" in
  (match report.R.Filter_replica.filters with
  | [ fr ] ->
      check_bool "lost store forces a resync" true
        (match fr.R.Filter_replica.fr_resync with
        | Some (Consumer.Merkle _ | Consumer.Cold _) -> true
        | None -> false)
  | frs -> Alcotest.failf "expected one filter recovery, got %d" (List.length frs));
  (* No poll has run: the answer comes from what recovery restored. *)
  let expected = canon (Content.current b q) in
  check_int "master holds both" 2 (List.length expected);
  match R.Filter_replica.answer replica2 q with
  | R.Replica.Answered entries ->
      let entries = canon entries in
      check_bool "answer equals the master's before any poll" true
        (List.length entries = List.length expected
        && List.for_all2 Entry.equal entries expected)
  | R.Replica.Referral -> Alcotest.fail "stored query referred"

(* A Merkle repair whose roots already match still mints a cookie: one
   naming the upstream's current CSN, from which the next poll replays
   incrementally. *)
let check_repaired_cookie b replica q =
  let c = Option.get (R.Filter_replica.consumer_for replica q) in
  check_bool "the cookie names the master's CSN" true
    (match Option.bind (Consumer.cookie c) Protocol.parse_cookie with
    | Some (_, csn) -> Csn.equal csn (Backend.csn b)
    | None -> false);
  match
    Consumer.sync_over c (R.Filter_replica.transport replica)
      ~host:(R.Filter_replica.master_host replica)
  with
  | Ok o ->
      check_bool "the next poll is incremental" true
        (o.Consumer.reply.Protocol.kind = Protocol.Incremental)
  | Error e -> failwith (Consumer.sync_error_to_string e)

let repaired_by_merkle report =
  match report.R.Filter_replica.filters with
  | [ fr ] ->
      check_bool "repaired by Merkle walk" true
        (match fr.R.Filter_replica.fr_resync with
        | Some (Consumer.Merkle _) -> true
        | Some (Consumer.Cold _) | None -> false)
  | frs -> Alcotest.failf "expected one filter recovery, got %d" (List.length frs)

let test_lost_empty_store_mints_cookie () =
  (* The lost slot's filter matches nothing: the empty content it
     recovers to already has the master's root hash. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let replica = Net_fixture.replica_of (Master.create b) in
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"r"));
  let q = dept_query "99" in
  must (R.Filter_replica.install_filter replica q);
  R.Filter_replica.detach_store replica;
  Store.Medium.remove m ~name:"r.f0.snap";
  Store.Medium.remove m ~name:"r.f0.wal";
  let replica2, report = reopen_replica replica m ~prefix:"r" in
  repaired_by_merkle report;
  check_repaired_cookie b replica2 q

let test_torn_matching_slot_mints_cookie () =
  (* After the checkpoint, bob joins the content and leaves it again,
     two journaled polls.  Tearing the log loses both, so the slot
     recovers the checkpoint's content, which is the master's again,
     under the checkpoint's older cookie. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let replica = Net_fixture.replica_of (Master.create b) in
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"r"));
  let q = dept_query "7" in
  must (R.Filter_replica.install_filter replica q);
  R.Filter_replica.checkpoint replica;
  apply b (Update.add (person "bob" ()));
  R.Filter_replica.sync replica;
  apply b (Update.delete (dn "cn=bob,o=xyz"));
  R.Filter_replica.sync replica;
  R.Filter_replica.detach_store replica;
  Store.Medium.truncate m ~name:"r.f0.wal" 5;
  let replica2, report = reopen_replica replica m ~prefix:"r" in
  repaired_by_merkle report;
  check_repaired_cookie b replica2 q

(* --- The repair ladder's cold step -------------------------------------- *)

(* Each caller of the repair ladder, with the Merkle walk's first
   exchange dropped: the ladder must fetch cold before it returns, so
   the replica equals the master at once and reports the cold step. *)

let drop_first_exchange faults =
  Network.Faults.script faults [ Network.Faults.Drop_request ]

let is_cold = function
  | Some (Consumer.Cold { walk = Error _; fetch = Ok _ }) -> true
  | Some (Consumer.Cold _ | Consumer.Merkle _) | None -> false

let test_torn_slot_walk_fails_cold () =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let faults = Network.Faults.create () in
  let replica =
    R.Filter_replica.create_over
      (Net_fixture.transport_of ~faults (Master.create b))
      ~master_host:Net_fixture.host
  in
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"r"));
  let q = dept_query "7" in
  must (R.Filter_replica.install_filter replica q);
  R.Filter_replica.checkpoint replica;
  apply b (Update.add (person "bob" ()));
  R.Filter_replica.sync replica;
  R.Filter_replica.detach_store replica;
  Store.Medium.truncate m ~name:"r.f0.wal" 5;
  apply b (Update.add (person "carol" ()));
  drop_first_exchange faults;
  let replica2, report = reopen_replica replica m ~prefix:"r" in
  (match report.R.Filter_replica.filters with
  | [ fr ] ->
      check_bool "torn slot" true fr.R.Filter_replica.fr_truncated;
      check_bool "repaired by the cold step" true (is_cold fr.R.Filter_replica.fr_resync)
  | frs -> Alcotest.failf "expected one filter recovery, got %d" (List.length frs));
  let c = Option.get (R.Filter_replica.consumer_for replica2 q) in
  check_bool "content equals the master's before any poll" true (entry_sets_equal c b q);
  check_bool "the cold fetch counts as fetch traffic" true
    ((R.Filter_replica.stats replica2).R.Stats.fetch_entries > 0)

let test_consumer_repair_walk_fails_cold () =
  (* The corruption sweep's call: a consumer reopened over a torn
     store, repaired directly. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let faults = Network.Faults.create () in
  let tr = Net_fixture.transport_of ~faults (Master.create b) in
  let q = dept_query "7" in
  let m = Store.Medium.memory () in
  let c0, _ = reopen_consumer q (Store.Store.create m ~name:"c") in
  ignore (poll tr c0);
  Consumer.checkpoint c0;
  apply b (Update.add (person "bob" ()));
  ignore (poll tr c0);
  Consumer.detach_store c0;
  Store.Medium.truncate m ~name:"c.wal" 5;
  apply b (Update.add (person "carol" ()));
  let c, recovery = reopen_consumer q (Store.Store.create m ~name:"c") in
  check_bool "torn store" true recovery.Store.Store.truncated;
  drop_first_exchange faults;
  check_bool "repaired by the cold step" true
    (is_cold (Some (Consumer.repair c tr ~host:Net_fixture.host)));
  check_bool "content equals the master's" true (entry_sets_equal c b q);
  check_bool "the cookie names the master's CSN" true
    (match Consumer.cookie_csn c with
    | Some csn -> Csn.equal csn (Backend.csn b)
    | None -> false)

let test_topology_merkle_restart_walk_fails_cold () =
  (* A durable leaf misses updates while down; its Merkle restart's
     walk is dropped.  The leaf must not rejoin serving its stale
     recovered content without a cookie: the ladder fetches cold
     before [restart_leaf] returns. *)
  let b = build_directory () in
  let faults = Network.Faults.create () in
  let leaf_queries = List.init 4 (fun i -> dept_query (string_of_int (i + 1))) in
  let t =
    must (T.Topology.build ~faults ~shape:T.Topology.Star ~covers:[] ~leaf_queries b)
  in
  T.Topology.enable_durability t;
  let victim = List.hd (T.Topology.leaves t) in
  let name = T.Leaf.name victim in
  let q = List.hd (T.Leaf.subscriptions victim) in
  let dept = List.find (fun d -> Query.equal q (dept_query d)) [ "1"; "2"; "3"; "4" ] in
  T.Topology.crash_leaf t victim;
  apply b (Update.add (person "late" ~dept ()));
  drop_first_exchange faults;
  let leaf, report = must (T.Topology.restart_leaf ~mode:T.Topology.Merkle t ~name) in
  check_bool "the restarted leaf equals the master at once" true
    (T.Topology.leaf_converged t leaf);
  match report with
  | Some { R.Filter_replica.filters = [ fr ]; _ } ->
      check_bool "repaired by the cold step" true (is_cold fr.R.Filter_replica.fr_resync);
      let c = Option.get (R.Filter_replica.consumer_for (T.Leaf.replica leaf) q) in
      check_bool "the report reads the repaired cookie" true
        (fr.R.Filter_replica.fr_cookie = Consumer.cookie c)
  | _ -> Alcotest.fail "expected a durable report with one filter"

let test_topology_merkle_restart_walks_once () =
  (* A durable leaf that syncs only at checkpoints journals one poll,
     then crashes with its log torn: its open already repairs the torn
     slot, so the Merkle restart's ladder must not walk it again. *)
  let b = build_directory () in
  let leaf_queries = List.init 4 (fun i -> dept_query (string_of_int (i + 1))) in
  let t = must (T.Topology.build ~shape:T.Topology.Star ~covers:[] ~leaf_queries b) in
  let faults = Store.Medium.Faults.create () in
  T.Topology.enable_durability ~faults ~sync:false t;
  T.Topology.checkpoint_leaves t;
  let victim = List.hd (T.Topology.leaves t) in
  let name = T.Leaf.name victim in
  let q = List.hd (T.Leaf.subscriptions victim) in
  let dept = List.find (fun d -> Query.equal q (dept_query d)) [ "1"; "2"; "3"; "4" ] in
  apply b (Update.add (person "journaled" ~dept ()));
  T.Topology.sync_round t;
  Store.Medium.Faults.script faults [ Store.Medium.Faults.Torn_tail ];
  T.Topology.crash_leaf t victim;
  let leaf, report = must (T.Topology.restart_leaf ~mode:T.Topology.Merkle t ~name) in
  check_bool "the restarted leaf equals the master" true (T.Topology.leaf_converged t leaf);
  match report with
  | Some { R.Filter_replica.filters = [ fr ]; _ } ->
      check_bool "torn slot" true fr.R.Filter_replica.fr_truncated;
      check_bool "repaired by the open" true (Option.is_some fr.R.Filter_replica.fr_resync);
      check_int "one Merkle walk" 1
        (R.Filter_replica.stats (T.Leaf.replica leaf)).R.Stats.merkle_syncs
  | _ -> Alcotest.fail "expected a durable report with one filter"

(* --- Incremental checkpoint image ≡ full encode (property) ------------- *)

(* The checkpoint body from before the consumer kept its image between
   checkpoints: sort the whole content by DN and encode every entry.
   Kept as the oracle every incremental image must equal.  Each entry
   is encoded afresh from a copy, never from the image the consumer's
   journal kept on it. *)
let full_image c =
  let module DW = Ber_codec.Der.W in
  let w = Ldap_compile.Wbuf.create () in
  let m = DW.mark w in
  let me = DW.mark w in
  let sorted =
    List.sort
      (fun a b -> Dn.compare (Entry.dn b) (Entry.dn a))
      (Content_store.to_list (Consumer.content c))
  in
  List.iter (fun e -> DW.entry w (Entry.make (Entry.dn e) (Entry.attributes e))) sorted;
  DW.close_seq w me;
  DW.option w (DW.octets w) (Consumer.cookie c);
  DW.close_seq w m;
  Ldap_compile.Wbuf.contents w

(* The consumer payload inside the store's snapshot: generation
   INTEGER, then the payload as an OCTET STRING. *)
let snapshot_image medium =
  let snap = Option.get (Store.Snapshot.read medium ~name:"c.snap") in
  let cur = Ber_codec.Der.cursor snap in
  ignore (Ber_codec.Der.read_integer cur);
  Ber_codec.Der.read_octets cur

(* Escapes, a multi-valued RDN, two spellings of one DN (indices 0
   and 1 share a slot) and two parents, so ascending DN order differs
   from insertion order. *)
let image_dns =
  Array.map dn
    [| "cn=Z,o=xyz"; "cn=z,o=xyz"; "cn=a\\,b,ou=x,o=xyz"; "cn=\\#h,o=xyz";
       "cn=q+sn=r,o=xyz"; "cn=b,ou=x,o=xyz"; "uid=7,o=xyz"; "cn=\\ lead,o=xyz" |]

(* Twenty more under a parent of their own: one reply upserting many
   of them joins more slots than the image holds, so the image grows
   while it places them. *)
let bulk_dns = Array.init 20 (fun k -> dn (Printf.sprintf "cn=bulk%02d,ou=b,o=xyz" k))

let pool_entry dn i v =
  Entry.make dn
    [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ "n" ^ string_of_int i ]);
      ("description", [ String.make (1 + (v * 37 mod 150)) 'd' ]);
      ("departmentNumber", [ string_of_int v ]) ]

let image_entry i v = pool_entry image_dns.(i) i v

type image_step =
  | Upsert of int * int
  | Remove of int
  | Rename of int * int * int  (* remove the first, add the second *)
  | Degraded of bool list * int list  (* retain mask over the pool, re-sends *)
  | Initial of int list
  | Bulk of int * int  (* the first [n] bulk entries, in one reply *)
  | Checkpoint
  | Journaled of int * int  (* an upsert reply, then a checkpoint *)
  | Trim
  | Reattach

let image_step_gen =
  let open QCheck.Gen in
  let i = int_bound (Array.length image_dns - 1) in
  frequency
    [
      (5, map2 (fun i v -> Upsert (i, v)) i (int_bound 9));
      (2, map (fun i -> Remove i) i);
      (2, map3 (fun a b v -> Rename (a, b, v)) i i (int_bound 9));
      (1, map2 (fun m l -> Degraded (m, l)) (list_repeat (Array.length image_dns) bool)
           (list_size (0 -- 2) i));
      (1, map (fun l -> Initial l) (list_size (0 -- 5) i));
      (1, map2 (fun n v -> Bulk (n, v)) (9 -- 20) (int_bound 9));
      (4, return Checkpoint);
      (2, map2 (fun i v -> Journaled (i, v)) i (int_bound 9));
      (1, return Trim);
      (1, return Reattach);
    ]

let show_step = function
  | Upsert (i, v) -> Printf.sprintf "upsert %d/%d" i v
  | Remove i -> Printf.sprintf "remove %d" i
  | Rename (a, b, v) -> Printf.sprintf "rename %d->%d/%d" a b v
  | Degraded (m, l) ->
      Printf.sprintf "degraded [%s] +[%s]"
        (String.concat "" (List.map (fun b -> if b then "1" else "0") m))
        (String.concat "," (List.map string_of_int l))
  | Initial l -> Printf.sprintf "initial [%s]" (String.concat "," (List.map string_of_int l))
  | Bulk (n, v) -> Printf.sprintf "bulk %d/%d" n v
  | Checkpoint -> "checkpoint"
  | Journaled (i, v) -> Printf.sprintf "journaled %d/%d" i v
  | Trim -> "trim"
  | Reattach -> "reattach"

let prop_incremental_image =
  QCheck.Test.make ~count:300
    ~name:"recovery: incremental checkpoint image = full encode"
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map show_step steps))
       QCheck.Gen.(list_size (1 -- 40) image_step_gen))
    (fun steps ->
      let q = dept_query "7" in
      let c = Consumer.create q in
      let m = Store.Medium.memory () in
      let s = Store.Store.create m ~name:"c" in
      ignore (must (Consumer.open_store c s));
      let n = ref 0 in
      let reply kind actions =
        incr n;
        let cookie = if !n mod 5 = 0 then None else Some (Printf.sprintf "rs:1:%d" !n) in
        Consumer.apply_reply c (Protocol.reply ~kind ~actions ~cookie)
      in
      let incremental = reply Protocol.Incremental in
      let upserting e =
        if Content_store.find (Consumer.content c) (Entry.dn e) = None then Action.Add e
        else Action.Modify e
      in
      let upsert i v = incremental [ upserting (image_entry i v) ] in
      let ok = ref true in
      (* The snapshot is read back through its CRC, which the
         checkpoint folded from per-entry CRCs. *)
      let checkpoint () =
        Consumer.checkpoint c;
        if snapshot_image m <> full_image c then ok := false;
        let r, _ = reopen_consumer q (Store.Store.create m ~name:"c") in
        if
          Consumer.cookie r <> Consumer.cookie c
          || not
               (let a = canon (Consumer.entries r) and b = canon (Consumer.entries c) in
                List.length a = List.length b && List.for_all2 Entry.equal a b)
        then ok := false
      in
      List.iter
        (fun step ->
          match step with
          | Upsert (i, v) -> upsert i v
          | Remove i -> incremental [ Action.Delete image_dns.(i) ]
          | Rename (a, b, v) ->
              incremental [ Action.Delete image_dns.(a); Action.Add (image_entry b v) ]
          | Degraded (mask, adds) ->
              let retained = List.filteri (fun i _ -> List.nth mask i) (Array.to_list image_dns) in
              reply Protocol.Degraded
                (List.map (fun d -> Action.Retain d) retained
                @ List.map (fun i -> Action.Add (image_entry i i)) adds)
          | Initial l ->
              reply Protocol.Initial_content (List.map (fun i -> Action.Add (image_entry i 1)) l)
          | Bulk (n, v) ->
              incremental (List.init n (fun k -> upserting (pool_entry bulk_dns.(k) (100 + k) v)))
          | Trim -> Content_store.trim_spine (Consumer.content c) ~keep:0
          | Reattach ->
              (* Reopened over an emptied store: the populated
                 consumer's image is encoded afresh. *)
              Consumer.detach_store c;
              Store.Store.destroy s;
              ignore (must (Consumer.open_store c s))
          | Checkpoint -> checkpoint ()
          | Journaled (i, v) ->
              (* The reply's entry is new, so the image the checkpoint
                 reads is the one the journal kept on it. *)
              upsert i v;
              checkpoint ())
        (steps @ [ Checkpoint ]);
      !ok)

(* --- Images written before the log moved onto the spine ------------- *)

let restore_image m ~name snap wal =
  Store.Medium.write_atomic_sub m ~name:(name ^ ".snap") (Bytes.of_string snap) ~pos:0
    ~len:(String.length snap);
  Store.Medium.append m ~name:(name ^ ".wal") wal;
  Store.Store.create m ~name

let test_old_ring_image () =
  (* A backend snapshot holding the old changelog ring, plus a WAL
     suffix: the recovered log is the one the old code recovered. *)
  let m = Store.Medium.memory () in
  let store = restore_image m ~name:"ring" Old_images.ring_snap Old_images.ring_wal in
  let b = Backend.create () in
  ignore (must (Store.Backend_store.open_store b store));
  let describe (r : Update.record) =
    ( Csn.to_int r.Update.csn,
      Update.op_kind_name r.op,
      Dn.to_string (Update.op_target r.op) )
  in
  Alcotest.(check (list (triple int string string)))
    "log_since zero" Old_images.ring_log
    (List.map describe (Backend.log_since b Csn.zero));
  check_int "floor" 2 (Csn.to_int (Backend.log_floor b));
  check_int "csn" 11 (Csn.to_int (Backend.csn b));
  check_bool "complete from the floor" true (Backend.log_complete_since b (Csn.of_int 2));
  check_bool "incomplete below it" false (Backend.log_complete_since b (Csn.of_int 1))

let test_old_tombstone_image () =
  (* A Tombstone master snapshot holding a tombstone list, plus a WAL
     of tombstone records: both recover (the list is skipped), and the
     session's next poll serves the deletes the old code served, read
     from the recovered backend's log instead. *)
  let m = Store.Medium.memory () in
  let bstore = restore_image m ~name:"tsb" Old_images.tsb_snap Old_images.tsb_wal in
  let mstore = restore_image m ~name:"tsm" Old_images.tsm_snap Old_images.tsm_wal in
  let b = Backend.create () in
  ignore (must (Store.Backend_store.open_store b bstore));
  let master = Master.create ~strategy:Master.Tombstone b in
  let recovery = must (Master.open_store master mstore) in
  (* Tombstone serving buffers nothing per session. *)
  check_bool "tombstone strategy" true (Master.pending_stats master = (0, 0));
  check_int "tombstone records read" 2 (List.length recovery.Store.Store.records);
  check_int "history size" 5 (Master.history_size master);
  let reply =
    must
      (Master.handle master
         { Protocol.mode = Protocol.Poll; cookie = Some Old_images.ts_cookie }
         (dept_query "7"))
  in
  check_bool "incremental" true (reply.Protocol.kind = Protocol.Incremental);
  Alcotest.(check (list (pair string string)))
    "same actions, same order" Old_images.ts_actions
    (List.map
       (fun a -> (Action.kind_name a, Dn.to_string (Action.target a)))
       reply.Protocol.actions)

let test_old_session_history_image () =
  (* A Session_history master snapshot holding a session's pending
     actions, plus a WAL of session records of every kind: the
     recovered master answers the session's cookie with the old code's
     incremental reply. *)
  let m = Store.Medium.memory () in
  let bstore = restore_image m ~name:"shb" Old_images.shb_snap Old_images.shb_wal in
  let mstore = restore_image m ~name:"shm" Old_images.shm_snap Old_images.shm_wal in
  let b = Backend.create () in
  ignore (must (Store.Backend_store.open_store b bstore));
  let master = Master.create b in
  let recovery = must (Master.open_store master mstore) in
  (* Session history buffers the session's pending actions. *)
  check_bool "session history strategy" true (fst (Master.pending_stats master) > 0);
  check_int "session records read" 9 (List.length recovery.Store.Store.records);
  check_int "one session left" 1 (Master.session_count master);
  let reply =
    must
      (Master.handle master
         { Protocol.mode = Protocol.Poll; cookie = Some Old_images.sh_cookie }
         (dept_query "7"))
  in
  check_bool "incremental" true (reply.Protocol.kind = Protocol.Incremental);
  Alcotest.(check (option string)) "cookie" (Some Old_images.sh_reply_cookie) reply.Protocol.cookie;
  check_int "bytes" Old_images.sh_reply_bytes (Protocol.bytes_cost reply);
  Alcotest.(check (list (triple string string (option int64))))
    "same actions, same order" Old_images.sh_actions
    (List.map
       (fun a ->
         ( Action.kind_name a,
           Dn.to_string (Action.target a),
           match a with
           | Action.Add e | Action.Modify e -> Some (Entry.content_hash64 e)
           | Action.Delete _ | Action.Retain _ -> None ))
       reply.Protocol.actions)

(* The steps that wrote [Old_images.fr_meta_*], replayed on [m]. *)
let fr_meta_queries () =
  let q flt = Query.make ~base:(dn "o=xyz") (f flt) in
  ( q Old_images.fr_q7,
    Query.make ~base:(dn "o=xyz") ~scope:Scope.One
      ~attrs:(Query.Select [ "cn"; "mail" ])
      (f Old_images.fr_q8),
    q Old_images.fr_q9 )

let fr_meta_backend () =
  let b = make_backend () in
  List.iter
    (fun (n, dept) -> apply b (Update.add (person n ~dept ())))
    [ ("a", "7"); ("b", "8"); ("c", "9") ];
  b

(* What today's code writes for those steps: the old images' format
   byte for byte, but with [q7] in slot 0 and [q8] in slot 1, so the
   WAL's removal names slot 1.  Attaching a store numbers the installed
   filters in the containment index's fold order, which now follows
   admissions (bucket creation order); the old images numbered them in
   the order of a hash table. *)
let fr_meta_snap_now =
  Old_images.of_hex
    "534e5031ba550be802010104818c3081890201023081833034020100632f04056f3d7879\
   7a0a01020a0100020100020100010100a31504106465706172746d656e746e756d626572\
   0401373000304b020101634604056f3d78797a0a01010a0100020100020100010100a022\
   a31504106465706172746d656e746e756d626572040138a4090402736e3003800162300a\
   0402636e04046d61696c"

let fr_meta_wal_now =
  Old_images.of_hex
    "d10000000392d90cab020101d10000004461c9e58030420a0100020102633a04056f3d78\
   797a0a01020a0100020100020100010100a120a3070402636e040163a315041064657061\
   72746d656e746e756d6265720401393000d100000008cae0012430060a0101020101"

let test_old_filter_replica_meta_image () =
  let q7, q8, q9 = fr_meta_queries () in
  (* Today's code writes the same steps' images byte for byte. *)
  let replica = Net_fixture.replica_of (Master.create (fr_meta_backend ())) in
  must (R.Filter_replica.install_filter replica q7);
  must (R.Filter_replica.install_filter replica q8);
  let m = Store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"fr"));
  must (R.Filter_replica.install_filter replica q9);
  R.Filter_replica.remove_filter replica q8;
  Alcotest.(check (option string)) "same snapshot" (Some fr_meta_snap_now)
    (Store.Medium.read m ~name:"fr.meta.snap");
  Alcotest.(check (option string)) "same WAL" (Some fr_meta_wal_now)
    (Store.Medium.read m ~name:"fr.meta.wal");
  (* The old images recover the old slot table: slots 1 and 2, two WAL
     records, and the next install takes slot 3. *)
  let b = fr_meta_backend () in
  let live = Net_fixture.replica_of (Master.create b) in
  let m = Store.Medium.memory () in
  ignore (restore_image m ~name:"fr.meta" Old_images.fr_meta_snap Old_images.fr_meta_wal);
  let recovered, report = reopen_replica live m ~prefix:"fr" in
  check_int "meta records replayed" 2 report.R.Filter_replica.meta_replayed;
  Alcotest.(check (list (pair int string)))
    "slots"
    [ (1, Query.to_string q7); (2, Query.to_string q9) ]
    (List.map
       (fun fr -> (fr.R.Filter_replica.fr_slot, Query.to_string fr.R.Filter_replica.fr_query))
       report.R.Filter_replica.filters);
  R.Filter_replica.sync recovered;
  check_bool "recovered filter resyncs" true
    (entry_sets_equal (Option.get (R.Filter_replica.consumer_for recovered q7)) b q7);
  must (R.Filter_replica.install_filter recovered q8);
  check_bool "next slot" true (Store.Medium.read m ~name:"fr.f3.snap" <> None)

(* --- Reopened ≡ live (properties) ---------------------------------------
   Each durable role runs random op scripts over an in-memory medium in
   two lives: ops, a crash with a drawn outcome, a reopen (a role
   created as the lost one was, opened over the medium it left), more
   ops, a second crash and reopen.  The live role is its own twin: its
   structural digest is taken at the durable point (the open or the
   last checkpoint) and after the last op, and a reopened role must
   equal the digest at the record boundary the crash leaves — the last
   one when no unsynced record can be lost ([sync], or [Keep_all]),
   else the durable point, since every record after a checkpoint is
   unsynced without [sync].  The second crash shows a reopen that
   journals with a [sync] other than the first open's. *)

module Faults = Store.Medium.Faults

type commit =
  | Add of int * int  (* person, department *)
  | Move of int * int
  | Delete of int
  | Rename of int * int

type op =
  | Commit of commit
  | Poll of int  (* consumer k polls *)
  | End of int  (* consumer k ends its session *)
  | Install of int  (* a query of [pool] *)
  | Remove of int
  | Checkpoint

let pname i = Printf.sprintf "p%d" i
let pdn i = dn (Printf.sprintf "cn=%s,o=xyz" (pname i))

let op_to_string = function
  | Commit (Add (i, d)) -> Printf.sprintf "add %d/%d" i d
  | Commit (Move (i, d)) -> Printf.sprintf "move %d/%d" i d
  | Commit (Delete i) -> Printf.sprintf "delete %d" i
  | Commit (Rename (i, j)) -> Printf.sprintf "rename %d->%d" i j
  | Poll k -> Printf.sprintf "poll %d" k
  | End k -> Printf.sprintf "end %d" k
  | Install k -> Printf.sprintf "install %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Checkpoint -> "checkpoint"

let outcome_name = function
  | Faults.Keep_all -> "keep-all"
  | Faults.Torn_tail -> "torn-tail"
  | Faults.Lose_unsynced -> "lose-unsynced"

let commit_gen =
  let open QCheck.Gen in
  let i = int_bound 5 and d = int_range 7 9 in
  frequency
    [
      (3, map2 (fun i d -> Add (i, d)) i d);
      (3, map2 (fun i d -> Move (i, d)) i d);
      (2, map (fun i -> Delete i) i);
      (1, map2 (fun i j -> Rename (i, j)) i i);
    ]

(* Two lives, each a crash outcome and an op script drawn by [op]. *)
let lives_arb ~extra ~show op =
  let open QCheck.Gen in
  let life = pair (oneofl [ Faults.Keep_all; Faults.Torn_tail; Faults.Lose_unsynced ]) (list_size (0 -- 12) op) in
  QCheck.make
    ~print:(fun (x, lives) ->
      String.concat " / "
        (show x
        :: List.map
             (fun (o, ops) -> outcome_name o ^ ": " ^ String.concat "; " (List.map op_to_string ops))
             lives))
    (pair extra (list_repeat 2 life))

let commit_to b c =
  let update =
    match c with
    | Add (i, d) -> Update.add (person (pname i) ~dept:(string_of_int d) ())
    | Move (i, d) -> Update.modify (pdn i) [ Update.replace_values "departmentNumber" [ string_of_int d ] ]
    | Delete i -> Update.delete (pdn i)
    | Rename (i, j) -> Update.modify_dn (pdn i) (Result.get_ok (Dn.rdn_of_string ("cn=" ^ pname j)))
  in
  (* A refused update changes nothing and journals nothing. *)
  ignore (Backend.apply b update)

(* Crashes [m] with [outcome] on every WAL in [wals]: a zero-byte
   append marks each one unsynced, so each draws exactly one scripted
   outcome, which tears or loses only what was really unsynced. *)
let crash_with m faults outcome wals =
  let wals = List.filter (fun name -> Store.Medium.size m ~name > 0) wals in
  List.iter (fun name -> Store.Medium.append m ~name "") wals;
  Faults.script faults (List.map (fun _ -> outcome) wals);
  Store.Medium.crash m

(* The two lives: [step] runs an op on the role (true when it made a
   durable point); [reopen] crashes, reopens and returns the new role
   with the adjustment its own repairs make to the expected digest.
   A mismatch reports the digests' lines, [show] flattening them. *)
let reopened_equals_live ~sync ~lives ~start ~step ~digest ~show ~reopen =
  let role = ref (start ()) in
  List.for_all
    (fun (outcome, ops) ->
      let durable = ref (digest !role) in
      List.iter (fun op -> if step !role op then durable := digest !role) ops;
      let last = digest !role in
      let reopened, adjust = reopen !role outcome in
      role := reopened;
      let expected = adjust (if sync || outcome = Faults.Keep_all then last else !durable) in
      let got = digest reopened in
      got = expected
      || QCheck.Test.fail_reportf "after %s, expected:@.%s@.reopened:@.%s" (outcome_name outcome)
           (String.concat "\n" (show expected)) (String.concat "\n" (show got)))
    lives

let entries_digest entries =
  List.sort compare
    (List.map (fun e -> Dn.canonical (Entry.dn e) ^ " " ^ Int64.to_string (Entry.content_hash64 e)) entries)

(* Content, CSN and log, and postings on the declared attribute. *)
let backend_digest b =
  let record (r : Update.record) =
    Printf.sprintf "log %d %s %s %s" (Csn.to_int r.Update.csn) (Update.op_kind_name r.op)
      (Dn.canonical (Update.op_target r.op))
      (match r.after with Some e -> Int64.to_string (Entry.content_hash64 e) | None -> "-")
  in
  let postings d =
    match
      Content_store.posting_count (Backend.content_store b)
        (f (Printf.sprintf "(departmentNumber=%d)" d))
    with
    | Some n -> Printf.sprintf "postings %d: %d" d n
    | None -> Printf.sprintf "postings %d: none" d
  in
  (Printf.sprintf "csn %d floor %d" (Csn.to_int (Backend.csn b)) (Csn.to_int (Backend.log_floor b))
  :: List.map (fun d -> "context " ^ Dn.canonical d) (Backend.contexts b))
  @ entries_digest (Backend.fold_entries b ~init:[] ~f:(fun acc e -> e :: acc))
  @ List.map record (Backend.log_since b (Backend.log_floor b))
  @ List.map postings [ 7; 8; 9 ]

(* The session table: ids, queries, synced CSNs and pending history. *)
let master_digest m =
  let server = Master.server m in
  let session (s : Master.history Server.session) =
    Printf.sprintf "session %d %s synced %d pending %d [%s]" s.id (Query.to_string s.query)
      (Csn.to_int s.synced_csn) s.state.Master.pending_len
      (String.concat ","
         (List.map
            (fun a -> Action.kind_name a ^ " " ^ Dn.canonical (Action.target a))
            s.state.Master.pending))
  in
  Printf.sprintf "next id %d" (Server.next_id server)
  :: List.map session
       (List.sort
          (fun (a : Master.history Server.session) b -> Int.compare a.id b.id)
          (Server.fold server List.cons []))

let consumer_digest c =
  Option.value ~default:"no cookie" (Consumer.cookie c) :: entries_digest (Consumer.entries c)

let queries = [| dept_query "7"; dept_query "8"; dept_query "9" |]

(* Consumers of a master, as the cookies they hold. *)
let poll_master m cookies k =
  match Master.handle m { Protocol.mode = Protocol.Poll; cookie = cookies.(k) } queries.(k) with
  | Ok reply -> cookies.(k) <- reply.Protocol.cookie
  | Error _ -> ()

let end_master m cookies k =
  (match cookies.(k) with
  | Some _ as cookie -> ignore (Master.handle m { Protocol.mode = Protocol.Sync_end; cookie } queries.(k))
  | None -> ());
  cookies.(k) <- None

let prop_backend_reopen =
  QCheck.Test.make ~count:150 ~name:"reopen: backend store = live"
    (lives_arb ~extra:QCheck.Gen.bool ~show:(Printf.sprintf "sync %b")
       QCheck.Gen.(frequency [ (5, map (fun c -> Commit c) commit_gen); (1, return Checkpoint) ]))
    (fun (sync, lives) ->
      let faults = Faults.create () in
      let m = Store.Medium.memory ~faults () in
      let store () = Store.Store.create ~sync m ~name:"b" in
      let journal = ref None in
      let open_over b =
        let bs, _ = must (Store.Backend_store.open_store b (store ())) in
        journal := Some bs;
        b
      in
      reopened_equals_live ~sync ~lives
        ~start:(fun () -> open_over (make_backend ()))
        ~step:(fun b -> function
          | Commit c ->
              commit_to b c;
              false
          | Checkpoint ->
              Option.iter Store.Backend_store.checkpoint !journal;
              true
          | _ -> false)
        ~digest:backend_digest ~show:Fun.id
        ~reopen:(fun _ outcome ->
          crash_with m faults outcome [ "b.wal" ];
          (open_over (Backend.create ~indexed:[ "departmentnumber" ] ()), Fun.id)))

let strategies = [ Master.Session_history; Master.Changelog; Master.Tombstone ]

let prop_master_reopen =
  QCheck.Test.make ~count:150 ~name:"reopen: master = live"
    (lives_arb
       ~extra:QCheck.Gen.(triple bool (oneofl strategies) (oneofl [ Master.Routed; Master.Naive ]))
       ~show:(fun (sync, s, d) ->
         Printf.sprintf "sync %b, %s, %s" sync (strategy_name s)
           (if d = Master.Routed then "routed" else "naive"))
       QCheck.Gen.(
         frequency
           [
             (4, map (fun c -> Commit c) commit_gen);
             (3, map (fun k -> Poll k) (int_bound 2));
             (1, map (fun k -> End k) (int_bound 2));
             (1, return Checkpoint);
           ]))
    (fun ((sync, strategy, dispatch), lives) ->
      let faults = Faults.create () in
      let m = Store.Medium.memory ~faults () in
      let cookies = Array.make 3 None in
      let journal = ref None in
      (* The master is created first: restoring the backend notifies
         no subscriber. *)
      let open_pair b =
        let master = Master.create ~strategy ~dispatch b in
        let bs, _ = must (Store.Backend_store.open_store b (Store.Store.create ~sync m ~name:"b")) in
        ignore (must (Master.open_store master (Store.Store.create ~sync m ~name:"m")));
        journal := Some bs;
        master
      in
      reopened_equals_live ~sync ~lives
        ~start:(fun () -> open_pair (make_backend ()))
        ~step:(fun master -> function
          | Commit c ->
              commit_to (Master.backend master) c;
              false
          | Poll k ->
              poll_master master cookies k;
              false
          | End k ->
              end_master master cookies k;
              false
          | Checkpoint ->
              Option.iter Store.Backend_store.checkpoint !journal;
              Master.checkpoint master;
              true
          | Install _ | Remove _ -> false)
        ~digest:(fun master ->
          master_digest master @ [ Printf.sprintf "backend csn %d" (Csn.to_int (Backend.csn (Master.backend master))) ])
        ~show:Fun.id
        ~reopen:(fun _ outcome ->
          crash_with m faults outcome [ "b.wal"; "m.wal" ];
          (open_pair (Backend.create ~indexed:[ "departmentnumber" ] ()), Fun.id)))

let prop_shard_reopen =
  QCheck.Test.make ~count:150 ~name:"reopen: shard master = live"
    (lives_arb ~extra:(QCheck.Gen.oneofl strategies) ~show:strategy_name
       QCheck.Gen.(
         frequency
           [
             (4, map (fun c -> Commit c) commit_gen);
             (3, map (fun k -> Poll k) (int_bound 2));
             (1, map (fun k -> End k) (int_bound 2));
             (1, return Checkpoint);
           ]))
    (fun (strategy, lives) ->
      let faults = Faults.create () in
      let m = Store.Medium.memory ~faults () in
      let cookies = Array.make 3 None in
      let create () =
        Ldap_shard.Shard_master.create ~strategy ~indexed:[ "departmentnumber" ] Schema.default ~id:0
      in
      let opened sm =
        ignore (must (Ldap_shard.Shard_master.open_store sm m ~prefix:"s"));
        sm
      in
      reopened_equals_live ~sync:false ~lives
        ~start:(fun () ->
          let sm = create () in
          must (Ldap_shard.Shard_master.seed sm ~contexts:[ org ] []);
          opened sm)
        ~step:(fun sm -> function
          | Commit c ->
              commit_to (Ldap_shard.Shard_master.backend sm) c;
              false
          | Poll k ->
              poll_master (Ldap_shard.Shard_master.master sm) cookies k;
              false
          | End k ->
              end_master (Ldap_shard.Shard_master.master sm) cookies k;
              false
          | Checkpoint ->
              Ldap_shard.Shard_master.checkpoint sm;
              true
          | Install _ | Remove _ -> false)
        ~digest:(fun sm ->
          backend_digest (Ldap_shard.Shard_master.backend sm)
          @ master_digest (Ldap_shard.Shard_master.master sm))
        ~show:Fun.id
        ~reopen:(fun _ outcome ->
          crash_with m faults outcome [ "s-backend.wal"; "s-master.wal" ];
          (opened (create ()), Fun.id)))

(* A leaf over a live master: the pool's queries come and go, and the
   test keeps the slot each filter was given (the next slot after the
   last one handed out, never reused) to compare with what a reopen
   reports. *)
let pool =
  [| dept_query "7"; dept_query "8"; Query.make ~base:(dn "o=xyz") (f "(cn=p1*)") |]

type slots = { mutable table : (string * int) list; mutable next : int; mutable ever : int }

let leaf_digest leaf slot_of =
  List.sort compare
    (List.map
       (fun (q, c) ->
         let q = Query.to_string q in
         (q, slot_of q, consumer_digest c))
       (R.Filter_replica.consumers (T.Leaf.replica leaf)))

let prop_leaf_reopen =
  QCheck.Test.make ~count:150 ~name:"reopen: leaf = live"
    (lives_arb ~extra:QCheck.Gen.bool ~show:(Printf.sprintf "sync %b")
       QCheck.Gen.(
         frequency
           [
             (3, map (fun c -> Commit c) commit_gen);
             (3, return (Poll 0));
             (2, map (fun k -> Install k) (int_bound 2));
             (1, map (fun k -> Remove k) (int_bound 2));
             (1, return Checkpoint);
           ]))
    (fun (sync, lives) ->
      let b = make_backend () in
      let transport = transport_of (Master.create b) in
      let faults = Faults.create () in
      let m = Store.Medium.memory ~faults () in
      let slots = { table = []; next = 0; ever = 0 } in
      let create () = T.Leaf.create transport ~name:"leaf" ~parent:Net_fixture.host in
      (* The digest carries the slot table and the next slot, so the
         expected boundary tells the reopened leaf's model too. *)
      let digest leaf =
        (slots.next, leaf_digest leaf (fun q -> List.assoc q slots.table))
      in
      reopened_equals_live ~sync ~lives
        ~start:(fun () ->
          let leaf = create () in
          ignore (must (T.Leaf.open_store ~sync leaf m));
          leaf)
        ~step:(fun leaf op ->
          let stored q = List.exists (Query.equal q) (T.Leaf.subscriptions leaf) in
          match op with
          | Commit c ->
              commit_to b c;
              false
          | Poll _ ->
              T.Leaf.sync leaf;
              false
          | Install k when not (stored pool.(k)) ->
              must (T.Leaf.subscribe leaf pool.(k));
              slots.table <- (Query.to_string pool.(k), slots.next) :: slots.table;
              slots.next <- slots.next + 1;
              slots.ever <- max slots.ever slots.next;
              false
          | Remove k when stored pool.(k) ->
              R.Filter_replica.remove_filter (T.Leaf.replica leaf) pool.(k);
              slots.table <- List.remove_assoc (Query.to_string pool.(k)) slots.table;
              false
          | Checkpoint ->
              T.Leaf.checkpoint leaf;
              true
          | Install _ | Remove _ | End _ -> false)
        ~digest
        ~show:(fun (next, filters) ->
          Printf.sprintf "next slot %d" next
          :: List.concat_map
               (fun (q, slot, lines) -> Printf.sprintf "filter %s slot %d" q slot :: lines)
               filters)
        ~reopen:(fun live outcome ->
          T.Leaf.detach_store live;
          crash_with m faults outcome
            ("leaf.meta.wal" :: List.init slots.ever (Printf.sprintf "leaf.f%d.wal"));
          let leaf = create () in
          let report = must (T.Leaf.open_store ~sync leaf m) in
          slots.table <-
            List.map
              (fun (fr : R.Filter_replica.filter_recovery) ->
                (Query.to_string fr.R.Filter_replica.fr_query, fr.R.Filter_replica.fr_slot))
              report.R.Filter_replica.filters;
          (* The repairs the open made are journaled like any reply;
             a checkpoint makes them the next life's durable point. *)
          T.Leaf.checkpoint leaf;
          (* A slot the open repaired (damaged or lost) holds the
             master's current content, whatever the crash left, under
             a cookie naming the master's current CSN: the repair
             mints one even when the roots already match. *)
          let repaired =
            List.filter_map
              (fun (fr : R.Filter_replica.filter_recovery) ->
                if Option.is_none fr.R.Filter_replica.fr_resync then None
                else Some (Query.to_string fr.R.Filter_replica.fr_query))
              report.R.Filter_replica.filters
          in
          let adjust (next, filters) =
            slots.next <- next;
            ( next,
              List.map
                (fun ((q, slot, _) as expected) ->
                  if not (List.mem q repaired) then expected
                  else
                    let c =
                      snd
                        (List.find
                           (fun (q', _) -> Query.to_string q' = q)
                           (R.Filter_replica.consumers (T.Leaf.replica leaf)))
                    in
                    let cookie =
                      match Consumer.cookie c with
                      | None -> "no cookie"
                      | Some cookie -> (
                          match Protocol.parse_cookie cookie with
                          | Some (_, csn) when Csn.equal csn (Backend.csn b) -> cookie
                          | _ -> "repaired cookie not at the master's CSN")
                    in
                    (q, slot, cookie :: entries_digest (Content.current b (Consumer.query c))))
                filters )
          in
          (leaf, adjust)))

let prop_recovered_equals_live =
  QCheck.Test.make ~count:150
    ~name:"recovery: snapshot+replay equals in-memory consumer"
    (lives_arb ~extra:QCheck.Gen.bool ~show:(Printf.sprintf "sync %b")
       QCheck.Gen.(
         frequency
           [ (3, map (fun c -> Commit c) commit_gen); (3, return (Poll 0)); (1, return Checkpoint) ]))
    (fun (sync, lives) ->
      let b = make_backend () in
      apply b (Update.add (person "p0" ()));
      let master = Master.create b in
      let tr = transport_of master in
      let q = dept_query "7" in
      let faults = Faults.create () in
      let m = Store.Medium.memory ~faults () in
      let opened c =
        ignore (must (Consumer.open_store c (Store.Store.create ~sync m ~name:"c")));
        c
      in
      (* A consumer with no store polls alongside: after every poll the
         journaled one agrees with it on content and acknowledged CSN
         (the session ids differ, two sessions at one master). *)
      let unjournaled = Consumer.create q in
      let csn_of c = Option.map snd (Option.bind (Consumer.cookie c) Protocol.parse_cookie) in
      reopened_equals_live ~sync ~lives
        ~start:(fun () -> opened (Consumer.create q))
        ~step:(fun c -> function
          | Commit x ->
              commit_to b x;
              false
          | Poll _ ->
              ignore (poll tr c);
              ignore (poll tr unjournaled);
              if
                csn_of c <> csn_of unjournaled
                || entries_digest (Consumer.entries c) <> entries_digest (Consumer.entries unjournaled)
              then QCheck.Test.fail_report "a poll left the journaled consumer unlike one with no store";
              false
          | Checkpoint ->
              Consumer.checkpoint c;
              true
          | End _ | Install _ | Remove _ -> false)
        ~digest:consumer_digest ~show:Fun.id
        ~reopen:(fun live outcome ->
          Consumer.detach_store live;
          crash_with m faults outcome [ "c.wal" ];
          (opened (Consumer.create q), Fun.id)))

(* The strategy is [create]'s: a store a master of another strategy
   left is refused, as is a store opened under a populated master. *)
let test_master_open_rules () =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let m = Store.Medium.memory () in
  let master = Master.create b in
  let tr = transport_of master in
  ignore (must (Master.open_store master (Store.Store.create m ~name:"master")));
  ignore (poll tr (Consumer.create (dept_query "7")));
  Master.checkpoint master;
  let store () = Store.Store.create m ~name:"master" in
  check_bool "a changelog master refuses a session-history store" true
    (Result.is_error (Master.open_store (Master.create ~strategy:Master.Changelog b) (store ())));
  check_bool "a populated master refuses a non-empty store" true
    (Result.is_error (Master.open_store master (store ())));
  let reopened = Master.create b in
  ignore (must (Master.open_store reopened (store ())));
  check_int "a master created as the lost one was reopens it" 1 (Master.session_count reopened)

let suite =
  [
    Alcotest.test_case "backend recovery" `Quick test_backend_recovery;
    Alcotest.test_case "short reads recover whole" `Quick test_short_read_recovery;
    Alcotest.test_case "modifyDN keeps the old rdn" `Quick test_modify_dn_keeps_old_rdn;
    Alcotest.test_case "snapshot keeps slot order" `Quick test_snapshot_slot_order;
    Alcotest.test_case "restore rdn-ordered image" `Quick test_restore_rdn_ordered_image;
    Alcotest.test_case "checkpoint crash window" `Quick
      test_checkpoint_crash_window_resyncs;
    Alcotest.test_case "lost consumer store resyncs" `Quick
      test_lost_consumer_store_resyncs;
    Alcotest.test_case "master keeps sessions" `Quick
      test_master_recovery_keeps_sessions;
    Alcotest.test_case "cold master degrades" `Quick
      test_master_cold_cookie_degrades;
    Alcotest.test_case "consumer prefix consistency" `Quick
      test_consumer_every_prefix_consistent;
    Alcotest.test_case "interrupted = uninterrupted" `Quick
      test_interrupted_equals_uninterrupted;
    Alcotest.test_case "master open rules" `Quick test_master_open_rules;
    QCheck_alcotest.to_alcotest prop_recovered_equals_live;
    QCheck_alcotest.to_alcotest prop_backend_reopen;
    QCheck_alcotest.to_alcotest prop_master_reopen;
    QCheck_alcotest.to_alcotest prop_shard_reopen;
    QCheck_alcotest.to_alcotest prop_leaf_reopen;
    Alcotest.test_case "topology durable restart" `Quick
      test_topology_durable_restart;
    Alcotest.test_case "topology cold restart" `Quick test_topology_cold_restart;
    Alcotest.test_case "topology cold then resume" `Quick test_topology_cold_then_resume;
    Alcotest.test_case "topology restart errors" `Quick
      test_topology_restart_errors;
    QCheck_alcotest.to_alcotest prop_incremental_image;
    Alcotest.test_case "old ring image restores" `Quick test_old_ring_image;
    Alcotest.test_case "old tombstone image restores" `Quick test_old_tombstone_image;
    Alcotest.test_case "old session history image restores" `Quick
      test_old_session_history_image;
    Alcotest.test_case "old filter-replica meta image restores" `Quick
      test_old_filter_replica_meta_image;
    Alcotest.test_case "lost empty store mints a cookie" `Quick
      test_lost_empty_store_mints_cookie;
    Alcotest.test_case "torn matching slot mints a cookie" `Quick
      test_torn_matching_slot_mints_cookie;
    Alcotest.test_case "torn slot walk fails: cold" `Quick test_torn_slot_walk_fails_cold;
    Alcotest.test_case "consumer repair walk fails: cold" `Quick
      test_consumer_repair_walk_fails_cold;
    Alcotest.test_case "topology Merkle restart walk fails: cold" `Quick
      test_topology_merkle_restart_walk_fails_cold;
    Alcotest.test_case "topology Merkle restart walks a torn slot once" `Quick
      test_topology_merkle_restart_walks_once;
    Alcotest.test_case "consumer skips no-op replies" `Quick
      test_consumer_skips_no_op_replies;
  ]
