(* Crash/restart recovery across the stack: backend snapshot+WAL
   round trips, a restarted master that still recognizes its cookies,
   the consumer's cookie+content atomicity boundary (every WAL prefix
   recovers to a state one poll away from convergence), observational
   equivalence of interrupted and uninterrupted runs under all three
   history strategies, and topology-level crash/restart. *)
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

let poll consumer master =
  match Consumer.sync consumer master with
  | Ok reply -> reply
  | Error e -> failwith e

(* --- Backend recovery ------------------------------------------------- *)

let test_backend_recovery () =
  let b = make_backend () in
  let m = Store.Medium.memory () in
  let bs = Store.Backend_store.attach b (Store.Store.create m ~name:"backend") in
  apply b (Update.add (person "alice" ()));
  apply b (Update.add (person "bob" ~dept:"8" ()));
  Store.Backend_store.checkpoint bs;
  apply b (Update.add (person "carol" ()));
  apply b
    (Update.modify (dn "cn=alice,o=xyz")
       [ Update.replace_values "departmentNumber" [ "9" ] ]);
  apply b (Update.delete (dn "cn=bob,o=xyz"));
  Store.Medium.crash m;
  let b2, recovery =
    must
      (Store.Backend_store.recover ~indexed:[ "departmentnumber" ]
         (Store.Store.create m ~name:"backend"))
  in
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
  let bs = Store.Backend_store.attach b (Store.Store.create m ~name:"backend") in
  apply b (Update.add (person "alice" ()));
  Store.Backend_store.checkpoint bs;
  for i = 1 to 10 do
    apply b (Update.add (person (Printf.sprintf "p%d" i) ~dept:(string_of_int (7 + (i mod 3))) ()))
  done;
  let wal_size = Store.Medium.size m ~name:"backend.wal" in
  for _ = 1 to 4 do
    let b2, r =
      must
        (Store.Backend_store.recover ~indexed:[ "departmentnumber" ]
           (Store.Store.create m ~name:"backend"))
    in
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

let recover_backend m =
  fst
    (must
       (Store.Backend_store.recover ~indexed:[ "departmentnumber" ]
          (Store.Store.create m ~name:"backend")))

(* RFC 4511 section 4.9: a modifyDN with deleteoldrdn FALSE keeps the
   old RDN value in the renamed entry, and so must every copy of it. *)
let test_modify_dn_keeps_old_rdn () =
  let b = make_backend () in
  let m = Store.Medium.memory () in
  let bs = Store.Backend_store.attach b (Store.Store.create m ~name:"backend") in
  apply b (Update.add (person "alice" ()));
  Store.Backend_store.checkpoint bs;
  let master = Master.create b in
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll consumer master);
  let new_rdn = match Dn.rdn_of_string "cn=alicia" with Ok r -> r | Error e -> failwith e in
  apply b (Update.modify_dn ~delete_old_rdn:false (dn "cn=alice,o=xyz") new_rdn);
  let renamed = dn "cn=alicia,o=xyz" in
  let live = Option.get (Backend.find b renamed) in
  check_bool "new rdn value" true (Entry.has_value live "cn" "alicia");
  check_bool "old rdn value kept" true (Entry.has_value live "cn" "alice");
  ignore (poll consumer master);
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
  let bs = Store.Backend_store.attach b (Store.Store.create m ~name:"backend") in
  Store.Backend_store.checkpoint bs;
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
      DW.close_seq w image);
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
  let m = Store.Medium.memory () in
  Master.attach_store master (Store.Store.create m ~name:"master");
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll consumer master);
  apply b (Update.add (person "dave" ()));
  ignore (poll consumer master);
  apply b (Update.add (person "erin" ()));
  Store.Medium.crash m;
  let master2, _ =
    must (Master.recover b (Store.Store.create m ~name:"master"))
  in
  (* The restarted master still recognizes the cookie it handed out:
     the next poll replays incrementally instead of resyncing. *)
  let reply = poll consumer master2 in
  check_bool "incremental resume after master restart" true
    (reply.Protocol.kind = Protocol.Incremental);
  check_bool "consumer converged" true (entry_sets_equal consumer b (dept_query "7"))

let test_master_cold_cookie_degrades () =
  (* Without durable session state the same restart forces a resync —
     the contrast that motivates journaling the session table. *)
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let consumer = Consumer.create (dept_query "7") in
  ignore (poll consumer master);
  apply b (Update.add (person "dave" ()));
  let master2 = Master.create b in
  let reply = poll consumer master2 in
  check_bool "unknown cookie cannot resume incrementally" true
    (reply.Protocol.kind <> Protocol.Incremental);
  check_bool "still converges" true (entry_sets_equal consumer b (dept_query "7"))

(* --- Consumer atomicity: every WAL prefix is consistent --------------- *)

let test_consumer_every_prefix_consistent () =
  let b = make_backend () in
  apply b (Update.add (person "alice" ()));
  let master = Master.create b in
  let q = dept_query "7" in
  let consumer = Consumer.create q in
  let m = Store.Medium.memory () in
  Consumer.attach_store consumer (Store.Store.create m ~name:"c");
  ignore (poll consumer master);
  apply b (Update.add (person "dave" ()));
  apply b (Update.delete (dn "cn=alice,o=xyz"));
  ignore (poll consumer master);
  apply b (Update.add (person "erin" ()));
  apply b
    (Update.modify (dn "cn=dave,o=xyz")
       [ Update.replace_values "departmentNumber" [ "8" ] ]);
  ignore (poll consumer master);
  let wal = Option.get (Store.Medium.read m ~name:"c.wal") in
  (* Cookie and content travel in one WAL record, so any byte-prefix
     of the journal — any crash point — recovers to a state the master
     can bring to convergence in a single poll.  A cookie journaled
     ahead of its content would make the resumed session skip those
     actions forever. *)
  for cut = 0 to String.length wal do
    let m2 = Store.Medium.memory () in
    Store.Medium.append m2 ~name:"c.wal" (String.sub wal 0 cut);
    Store.Medium.sync m2 ~name:"c.wal";
    let recovered, _ =
      must (Consumer.recover q (Store.Store.create m2 ~name:"c"))
    in
    ignore (poll recovered master);
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
  let q = dept_query "7" in
  let consumer = Consumer.create q in
  let m = Store.Medium.memory () in
  Consumer.attach_store consumer (Store.Store.create m ~name:"c");
  ignore (poll consumer master);
  phase1 b;
  ignore (poll consumer master);
  let consumer =
    if interrupt then begin
      (* Crash after the second poll: recovery resumes from the
         durable cookie, not from scratch. *)
      Store.Medium.crash m;
      Consumer.detach_store consumer;
      let recovered, recovery =
        must (Consumer.recover q (Store.Store.create m ~name:"c"))
      in
      check_bool
        (strategy_name strategy ^ ": journal replayed on recovery")
        true
        (recovery.Store.Store.records <> []);
      recovered
    end
    else consumer
  in
  phase2 b;
  ignore (poll consumer master);
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

(* --- Snapshot/replay ≡ in-memory (property) ---------------------------- *)

let ops_arb =
  (* (op code, person index, checkpoint after?) per step. *)
  QCheck.(list_of_size (Gen.int_range 1 12) (triple (int_bound 3) (int_bound 5) bool))

let prop_recovered_equals_live =
  QCheck.Test.make ~count:60
    ~name:"recovery: snapshot+replay equals in-memory consumer" ops_arb
    (fun steps ->
      let b = make_backend () in
      apply b (Update.add (person "p0" ()));
      let master = Master.create b in
      let q = dept_query "7" in
      let live = Consumer.create q in
      let journaled = Consumer.create q in
      let m = Store.Medium.memory () in
      Consumer.attach_store journaled (Store.Store.create m ~name:"c");
      ignore (poll live master);
      ignore (poll journaled master);
      List.iter
        (fun (code, i, ckpt) ->
          let name = Printf.sprintf "p%d" i in
          let target = dn (Printf.sprintf "cn=%s,o=xyz" name) in
          (match code with
          | 0 -> ignore (Backend.apply b (Update.add (person name ())))
          | 1 -> ignore (Backend.apply b (Update.delete target))
          | 2 ->
              ignore
                (Backend.apply b
                   (Update.modify target
                      [ Update.replace_values "departmentNumber" [ "8" ] ]))
          | _ ->
              ignore
                (Backend.apply b
                   (Update.modify target
                      [ Update.replace_values "departmentNumber" [ "7" ] ])));
          ignore (poll live master);
          ignore (poll journaled master);
          if ckpt then Consumer.checkpoint journaled)
        steps;
      Store.Medium.crash m;
      Consumer.detach_store journaled;
      let recovered, _ =
        must (Consumer.recover q (Store.Store.create m ~name:"c"))
      in
      let csn_of c =
        match c with
        | None -> None
        | Some cookie -> Option.map snd (Protocol.parse_cookie cookie)
      in
      let a = canon (Consumer.entries recovered) in
      let b = canon (Consumer.entries live) in
      (* Session ids differ (two sessions at the same master), so the
         cookies agree on the acknowledged CSN, not byte-for-byte. *)
      csn_of (Consumer.cookie recovered) = csn_of (Consumer.cookie live)
      && List.length a = List.length b
      && List.for_all2 Entry.equal a b)

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
  let replica = R.Filter_replica.create master in
  let m = Store.Medium.memory () in
  R.Filter_replica.attach_store replica m ~prefix:"replica";
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
  let replica2, report =
    must
      (R.Filter_replica.recover_over
         (R.Filter_replica.transport replica)
         ~master_host:(R.Filter_replica.master_host replica)
         m ~prefix:"replica")
  in
  (match report.R.Filter_replica.filters with
  | [ fr ] ->
      check_bool "stale-generation records discarded" true
        (fr.R.Filter_replica.fr_stale > 0);
      check_bool "recovery forced a resync" true
        (fr.R.Filter_replica.fr_resync <> R.Filter_replica.Resync_none)
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

(* --- Incremental checkpoint image ≡ full encode (property) ------------- *)

(* The checkpoint body from before the consumer kept its image between
   checkpoints: sort the whole content by DN and encode every entry.
   Kept as the oracle every incremental image must equal. *)
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
  List.iter (fun e -> DW.entry w e) sorted;
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

let image_entry i v =
  Entry.make image_dns.(i)
    [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ "n" ^ string_of_int i ]);
      ("description", [ String.make (1 + (v * 37 mod 150)) 'd' ]);
      ("departmentNumber", [ string_of_int v ]) ]

type image_step =
  | Upsert of int * int
  | Remove of int
  | Rename of int * int * int  (* remove the first, add the second *)
  | Degraded of bool list * int list  (* retain mask over the pool, re-sends *)
  | Initial of int list
  | Checkpoint
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
      (4, return Checkpoint);
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
  | Checkpoint -> "checkpoint"
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
      Consumer.attach_store c s;
      let n = ref 0 in
      let reply kind actions =
        incr n;
        let cookie = if !n mod 5 = 0 then None else Some (Printf.sprintf "rs:1:%d" !n) in
        Consumer.apply_reply c (Protocol.reply ~kind ~actions ~cookie)
      in
      let incremental = reply Protocol.Incremental in
      let ok = ref true in
      List.iter
        (fun step ->
          match step with
          | Upsert (i, v) ->
              let e = image_entry i v in
              incremental
                [
                  (if Content_store.find (Consumer.content c) (Entry.dn e) = None then Action.Add e
                   else Action.Modify e);
                ]
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
          | Trim -> Content_store.trim_spine (Consumer.content c) ~keep:0
          | Reattach ->
              Consumer.detach_store c;
              Consumer.attach_store c s
          | Checkpoint ->
              Consumer.checkpoint c;
              if snapshot_image m <> full_image c then ok := false;
              let r, _ = must (Consumer.recover q (Store.Store.create m ~name:"c")) in
              if
                Consumer.cookie r <> Consumer.cookie c
                || not
                     (let a = canon (Consumer.entries r) and b = canon (Consumer.entries c) in
                      List.length a = List.length b && List.for_all2 Entry.equal a b)
              then ok := false)
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
  let b, _ = must (Store.Backend_store.recover store) in
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
  let b, _ = must (Store.Backend_store.recover bstore) in
  let master, recovery = must (Master.recover b mstore) in
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
  let b, _ = must (Store.Backend_store.recover bstore) in
  let master, recovery = must (Master.recover b mstore) in
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

let test_old_filter_replica_meta_image () =
  let q7, q8, q9 = fr_meta_queries () in
  (* Today's code writes the old images byte for byte. *)
  let replica = R.Filter_replica.create (Master.create (fr_meta_backend ())) in
  must (R.Filter_replica.install_filter replica q7);
  must (R.Filter_replica.install_filter replica q8);
  let m = Store.Medium.memory () in
  R.Filter_replica.attach_store replica m ~prefix:"fr";
  must (R.Filter_replica.install_filter replica q9);
  R.Filter_replica.remove_filter replica q8;
  Alcotest.(check (option string)) "same snapshot" (Some Old_images.fr_meta_snap)
    (Store.Medium.read m ~name:"fr.meta.snap");
  Alcotest.(check (option string)) "same WAL" (Some Old_images.fr_meta_wal)
    (Store.Medium.read m ~name:"fr.meta.wal");
  (* The old images recover the old slot table: slots 1 and 2, two WAL
     records, and the next install takes slot 3. *)
  let b = fr_meta_backend () in
  let live = R.Filter_replica.create (Master.create b) in
  let m = Store.Medium.memory () in
  ignore (restore_image m ~name:"fr.meta" Old_images.fr_meta_snap Old_images.fr_meta_wal);
  let recovered, report =
    must
      (R.Filter_replica.recover_over (R.Filter_replica.transport live)
         ~master_host:(R.Filter_replica.master_host live) m ~prefix:"fr")
  in
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

let suite =
  [
    Alcotest.test_case "backend recovery" `Quick test_backend_recovery;
    Alcotest.test_case "short reads recover whole" `Quick test_short_read_recovery;
    Alcotest.test_case "modifyDN keeps the old rdn" `Quick test_modify_dn_keeps_old_rdn;
    Alcotest.test_case "snapshot keeps slot order" `Quick test_snapshot_slot_order;
    Alcotest.test_case "restore rdn-ordered image" `Quick test_restore_rdn_ordered_image;
    Alcotest.test_case "checkpoint crash window" `Quick
      test_checkpoint_crash_window_resyncs;
    Alcotest.test_case "master keeps sessions" `Quick
      test_master_recovery_keeps_sessions;
    Alcotest.test_case "cold master degrades" `Quick
      test_master_cold_cookie_degrades;
    Alcotest.test_case "consumer prefix consistency" `Quick
      test_consumer_every_prefix_consistent;
    Alcotest.test_case "interrupted = uninterrupted" `Quick
      test_interrupted_equals_uninterrupted;
    QCheck_alcotest.to_alcotest prop_recovered_equals_live;
    Alcotest.test_case "topology durable restart" `Quick
      test_topology_durable_restart;
    Alcotest.test_case "topology cold restart" `Quick test_topology_cold_restart;
    Alcotest.test_case "topology restart errors" `Quick
      test_topology_restart_errors;
    QCheck_alcotest.to_alcotest prop_incremental_image;
    Alcotest.test_case "old ring image restores" `Quick test_old_ring_image;
    Alcotest.test_case "old tombstone image restores" `Quick test_old_tombstone_image;
    Alcotest.test_case "old session history image restores" `Quick
      test_old_session_history_image;
    Alcotest.test_case "old filter-replica meta image restores" `Quick
      test_old_filter_replica_meta_image;
  ]
