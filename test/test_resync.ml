(* Tests for the ReSync protocol: session lifecycle, minimal update
   sets, degraded mode, baselines and a convergence property. *)
open Ldap
open Ldap_resync

(* A push channel that always accepts: no flow control modelled. *)
let push_of_fn f = { Protocol.pc_send = (fun a -> f a; Protocol.Push_ok); pc_close = ignore }

(* Sessions holding a persistent-search connection: those with a push
   channel. *)
let persistent_count master =
  Server.fold (Master.server master) (fun s n -> if s.Server.push <> None then n + 1 else n) 0

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "100") () =
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

let dept_query dept = Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s)" dept))

let kinds actions = List.map Action.kind_name actions |> List.sort String.compare

let transport_of = Net_fixture.transport_of
let poll = Net_fixture.poll

let test_initial_content () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  apply b (Update.add (person "c" ~dept:"8" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with
  | Ok reply ->
      check_bool "initial kind" true (reply.Protocol.kind = Protocol.Initial_content);
      check_int "two adds" 2 (Protocol.entries_cost reply)
  | Error e -> failwith e);
  check_int "consumer holds 2" 2 (Consumer.size consumer);
  check_bool "cookie stored" true (Consumer.cookie consumer <> None)

let test_incremental_minimal () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  (* Entry enters content, one changes within, one leaves. *)
  apply b (Update.add (person "b" ~dept:"7" ()));
  apply b (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "a@x" ] ]);
  apply b (Update.modify (dn "cn=b,o=xyz") [ Update.replace_values "departmentNumber" [ "9" ] ]);
  match poll tr consumer with
  | Ok reply ->
      (* b moved in then out: coalesced away.  Only a's modify remains. *)
      Alcotest.(check (list string)) "only modify" [ "modify" ] (kinds reply.Protocol.actions);
      check_int "consumer holds 1" 1 (Consumer.size consumer)
  | Error e -> failwith e

let test_rename_within_content () =
  (* Figure 3: a modify DN that keeps the entry in content is a delete
     of the old DN followed by an add of the new one. *)
  let b = make_backend () in
  apply b (Update.add (person "e3" ~dept:"7" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  let new_rdn = match Dn.rdn_of_string "cn=e5" with Ok r -> r | Error e -> failwith e in
  apply b (Update.modify_dn (dn "cn=e3,o=xyz") new_rdn);
  match poll tr consumer with
  | Ok reply ->
      Alcotest.(check (list string)) "delete+add" [ "add"; "delete" ]
        (kinds reply.Protocol.actions);
      check_bool "new dn held" true (Content_store.find (Consumer.content consumer) (dn "cn=e5,o=xyz") <> None);
      check_bool "old dn gone" true (Content_store.find (Consumer.content consumer) (dn "cn=e3,o=xyz") = None)
  | Error e -> failwith e

let test_add_then_delete_coalesces () =
  let b = make_backend () in
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  apply b (Update.add (person "x" ~dept:"7" ()));
  apply b (Update.delete (dn "cn=x,o=xyz"));
  match poll tr consumer with
  | Ok reply -> check_int "nothing sent" 0 (List.length reply.Protocol.actions)
  | Error e -> failwith e

let test_degraded_mode () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  apply b (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "a@x" ] ]);
  (* Kill the session server-side: the cookie becomes unknown. *)
  Server.expire (Master.server master) ~idle_limit:0;
  check_int "sessions expired" 0 (Master.session_count master);
  match poll tr consumer with
  | Ok reply ->
      check_bool "degraded kind" true (reply.Protocol.kind = Protocol.Degraded);
      (* a changed since the cookie: resent; b unchanged: retained. *)
      Alcotest.(check (list string)) "add+retain" [ "add"; "retain" ]
        (kinds reply.Protocol.actions);
      check_int "still 2 entries" 2 (Consumer.size consumer)
  | Error e -> failwith e

let test_degraded_prunes_stale () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  (* b leaves the content while the session is lost. *)
  apply b (Update.modify (dn "cn=b,o=xyz") [ Update.replace_values "departmentNumber" [ "9" ] ]);
  Server.expire (Master.server master) ~idle_limit:0;
  match poll tr consumer with
  | Ok reply ->
      check_bool "degraded" true (reply.Protocol.kind = Protocol.Degraded);
      check_bool "b pruned" true (Content_store.find (Consumer.content consumer) (dn "cn=b,o=xyz") = None);
      check_int "one entry" 1 (Consumer.size consumer)
  | Error e -> failwith e

let test_sync_end () =
  let b = make_backend () in
  let master = Master.create b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  check_int "one session" 1 (Master.session_count master);
  let cookie = Option.get (Consumer.cookie consumer) in
  (match
     Master.handle master { Protocol.mode = Protocol.Sync_end; cookie = Some cookie }
       (dept_query "7")
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  check_int "session gone" 0 (Master.session_count master)

let test_persist_push () =
  let b = make_backend () in
  let master = Master.create b in
  let pushed = ref [] in
  let request = { Protocol.mode = Protocol.Persist; cookie = None } in
  (match Server.handle (Master.server master)
           ~push:(push_of_fn (fun a -> pushed := a :: !pushed))
           request (dept_query "7") with
  | Ok reply -> check_int "initial empty" 0 (List.length reply.Protocol.actions)
  | Error e -> failwith e);
  apply b (Update.add (person "p" ~dept:"7" ()));
  apply b (Update.modify (dn "cn=p,o=xyz") [ Update.replace_values "mail" [ "p@x" ] ]);
  apply b (Update.delete (dn "cn=p,o=xyz"));
  Alcotest.(check (list string)) "live notifications" [ "add"; "delete"; "modify" ]
    (kinds !pushed);
  check_bool "persist without push rejected" true
    (Result.is_error (Master.handle master request (dept_query "7")))

let test_persist_filters_out_of_content () =
  let b = make_backend () in
  let master = Master.create b in
  let pushed = ref [] in
  let request = { Protocol.mode = Protocol.Persist; cookie = None } in
  (match Server.handle (Master.server master)
           ~push:(push_of_fn (fun a -> pushed := a :: !pushed))
           request (dept_query "7") with
  | Ok _ -> ()
  | Error e -> failwith e);
  apply b (Update.add (person "q" ~dept:"9" ()));
  check_int "out-of-content update not pushed" 0 (List.length !pushed)

let test_attribute_selection_in_actions () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let master = Master.create b in
  let tr = transport_of master in
  let query =
    Query.make ~attrs:(Query.Select [ "cn" ]) ~base:(dn "o=xyz") (f "(departmentNumber=7)")
  in
  let consumer = Consumer.create query in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  let e = Option.get (Content_store.find (Consumer.content consumer) (dn "cn=a,o=xyz")) in
  check_bool "cn present" true (Entry.has_attribute e "cn");
  check_bool "dept absent" false (Entry.has_attribute e "departmentnumber")

let test_malformed_cookie () =
  let b = make_backend () in
  let master = Master.create b in
  check_bool "malformed rejected" true
    (Result.is_error
       (Master.handle master { Protocol.mode = Protocol.Poll; cookie = Some "bogus" }
          (dept_query "7")));
  check_bool "parse_cookie" true (Protocol.parse_cookie "rs:3:17" = Some (3, Csn.of_int 17));
  check_bool "parse bad" true (Protocol.parse_cookie "rs:x:y" = None)

(* --- Baseline comparison (section 5.2) ------------------------------- *)

let run_strategy strategy =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  apply b (Update.add (person "z" ~dept:"9" ()));
  let master = Master.create ~strategy b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  (* Updates: one out-of-content delete, one in-content delete, one
     out-of-content add, one modify-out-of-content. *)
  apply b (Update.delete (dn "cn=z,o=xyz"));
  apply b (Update.delete (dn "cn=b,o=xyz"));
  apply b (Update.add (person "y" ~dept:"9" ()));
  apply b (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "departmentNumber" [ "9" ] ]);
  let reply =
    match poll tr consumer with Ok r -> r | Error e -> failwith e
  in
  (consumer, reply, b)

let test_session_history_exact () =
  let consumer, reply, b = run_strategy Master.Session_history in
  (* Exactly: delete b, delete a (moved out).  z's delete is invisible. *)
  Alcotest.(check (list string)) "exact deletes" [ "delete"; "delete" ]
    (kinds reply.Protocol.actions);
  check_int "consumer empty" 0 (Consumer.size consumer);
  ignore b

let test_changelog_conservative () =
  let consumer, reply, _ = run_strategy Master.Changelog in
  (* Changelog cannot classify deletes: z's delete is also sent. *)
  check_bool "more deletes than needed" true (List.length reply.Protocol.actions >= 3);
  check_int "still converges" 0 (Consumer.size consumer)

let test_tombstone_conservative () =
  let consumer, reply, _ = run_strategy Master.Tombstone in
  check_bool "more deletes than needed" true (List.length reply.Protocol.actions >= 3);
  check_int "still converges" 0 (Consumer.size consumer)

let test_history_sizes () =
  let strategies = [ Master.Session_history; Master.Changelog; Master.Tombstone ] in
  let sizes =
    List.map
      (fun strategy ->
        let b = make_backend () in
        let master = Master.create ~strategy b in
        let tr = transport_of master in
        let consumer = Consumer.create (dept_query "7") in
        (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
        (* Many out-of-content updates: session history stays empty. *)
        for i = 0 to 19 do
          apply b (Update.add (person (Printf.sprintf "n%d" i) ~dept:"9" ()))
        done;
        Master.history_size master)
      strategies
  in
  match sizes with
  | [ session; changelog; _tombstone ] ->
      check_int "session history empty" 0 session;
      check_bool "changelog grows" true (changelog >= 20)
  | _ -> assert false

let test_changelog_trim_degrades () =
  (* Trimming the master's log must not silently lose updates for the
     changelog strategy: the poll degrades instead. *)
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  let master = Master.create ~strategy:Master.Changelog b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  apply b (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "departmentNumber" [ "9" ] ]);
  apply b (Update.delete (dn "cn=b,o=xyz"));
  Backend.trim_log b ~before:(Csn.next (Backend.csn b));
  (match poll tr consumer with
  | Ok reply ->
      check_bool "degraded fallback" true (reply.Protocol.kind = Protocol.Degraded)
  | Error e -> failwith e);
  check_int "still converges" 0 (Consumer.size consumer);
  (* Session history is immune to trimming: its buffers are its own. *)
  let b2 = make_backend () in
  apply b2 (Update.add (person "a" ~dept:"7" ()));
  let master2 = Master.create b2 in
  let tr2 = transport_of master2 in
  let consumer2 = Consumer.create (dept_query "7") in
  (match poll tr2 consumer2 with Ok _ -> () | Error e -> failwith e);
  apply b2 (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "m@x" ] ]);
  Backend.trim_log b2 ~before:(Csn.next (Backend.csn b2));
  match poll tr2 consumer2 with
  | Ok reply ->
      check_bool "incremental despite trim" true
        (reply.Protocol.kind = Protocol.Incremental);
      Alcotest.(check (list string)) "exact modify" [ "modify" ] (kinds reply.Protocol.actions)
  | Error e -> failwith e

(* --- Fault injection over the transport ------------------------------ *)

let faulty_setup () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  let master = Master.create b in
  let net = Network.create () in
  let faults = Network.Faults.create () in
  let transport = Transport.create ~faults net in
  Transport.add_master transport ~name:"m" master;
  (b, master, net, faults, transport)

let converged b consumer =
  Dn.Set.equal
    (Content.current_dns b (Consumer.query consumer))
    (Consumer.dns consumer)

let test_dropped_reply_recovers () =
  let b, master, _net, faults, transport = faulty_setup () in
  let consumer = Consumer.create (dept_query "7") in
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Ok o ->
      check_bool "initial" true (o.Consumer.reply.Protocol.kind = Protocol.Initial_content);
      check_int "one attempt" 1 o.Consumer.attempts
  | Error e -> failwith (Consumer.sync_error_to_string e));
  apply b (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "a@x" ] ]);
  apply b (Update.add (person "c" ~dept:"7" ()));
  (* The master processes the poll (clearing its pending buffer and
     advancing the session CSN) but the reply is lost.  The retry's
     stale cookie must trigger a degraded resync, not a silent gap. *)
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Ok o ->
      check_int "two attempts" 2 o.Consumer.attempts;
      check_int "one backoff tick" 1 o.Consumer.backoff;
      check_bool "degraded recovery" true
        (o.Consumer.reply.Protocol.kind = Protocol.Degraded);
      check_bool "counted as resync" true o.Consumer.resynced
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool "converged" true (converged b consumer);
  ignore master

let test_expired_session_resumes () =
  let b, master, _net, _faults, transport = faulty_setup () in
  let consumer = Consumer.create (dept_query "7") in
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  apply b (Update.add (person "d" ~dept:"7" ()));
  apply b (Update.delete (dn "cn=b,o=xyz"));
  Server.expire (Master.server master) ~idle_limit:0;
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Ok o ->
      check_bool "degraded resume" true
        (o.Consumer.reply.Protocol.kind = Protocol.Degraded);
      check_bool "counted as resync" true o.Consumer.resynced
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool "converged" true (converged b consumer)

let test_retry_exhaustion () =
  let b, _master, _net, faults, transport = faulty_setup () in
  let consumer = Consumer.create (dept_query "7") in
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  let cookie_before = Consumer.cookie consumer in
  apply b (Update.add (person "e" ~dept:"7" ()));
  Network.Faults.script faults
    [
      Network.Faults.Drop_request; Network.Faults.Drop_request;
      Network.Faults.Drop_request; Network.Faults.Drop_request;
    ];
  (match Consumer.sync_over consumer transport ~host:"m" with
  | Error (Consumer.Exhausted { attempts; last = Network.Timeout }) ->
      check_int "budget spent" 4 attempts
  | Error e -> failwith (Consumer.sync_error_to_string e)
  | Ok _ -> Alcotest.fail "expected exhaustion");
  (* Cookie and content survive; the dropped requests never reached
     the master, so the next poll replays incrementally. *)
  check_bool "cookie kept" true (Consumer.cookie consumer = cookie_before);
  match Consumer.sync_over consumer transport ~host:"m" with
  | Ok o ->
      check_bool "incremental after recovery" true
        (o.Consumer.reply.Protocol.kind = Protocol.Incremental);
      check_bool "not a resync" false o.Consumer.resynced;
      check_bool "converged" true (converged b consumer)
  | Error e -> failwith (Consumer.sync_error_to_string e)

let test_persist_reconnect () =
  let b, master, net, faults, transport = faulty_setup () in
  (* Pushes are events on the network's engine: run it to deliver them. *)
  let deliver () = Ldap_sim.Engine.run (Network.engine net) in
  let consumer = Consumer.create (dept_query "7") in
  (match Consumer.connect_persist consumer transport ~host:"m" ~from:"consumer" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool "connected" true (Consumer.persist_alive consumer);
  apply b (Update.add (person "p1" ~dept:"7" ()));
  deliver ();
  check_int "push applied" 3 (Consumer.size consumer);
  (* The link drops: the next push dies and takes the connection with
     it — detected lazily, like half-open TCP. *)
  Network.Faults.partition faults ~a:"consumer" ~b:"m";
  apply b (Update.add (person "p2" ~dept:"7" ()));
  deliver ();
  check_bool "connection broken" false (Consumer.persist_alive consumer);
  check_int "push lost" 3 (Consumer.size consumer);
  apply b (Update.add (person "p3" ~dept:"7" ()));
  Network.Faults.heal faults ~a:"consumer" ~b:"m";
  (match Consumer.ensure_persist consumer transport ~host:"m" ~from:"consumer" with
  | Ok (Some o) ->
      (* The master pushed p1..p3 through (advancing the session CSN)
         while the consumer only acknowledged the establishment CSN:
         reconnection must resynchronize, not resume silently. *)
      check_bool "degraded reconnect" true
        (o.Consumer.reply.Protocol.kind = Protocol.Degraded);
      check_bool "counted as resync" true o.Consumer.resynced
  | Ok None -> Alcotest.fail "expected reconnection"
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool "reconnected" true (Consumer.persist_alive consumer);
  check_bool "converged" true (converged b consumer);
  (* New pushes flow through the fresh connection. *)
  apply b (Update.add (person "p4" ~dept:"7" ()));
  deliver ();
  check_bool "live again" true (converged b consumer);
  check_int "one persistent session" 1 (persistent_count master)

let test_ensure_persist_noop_when_alive () =
  let b, _master, _net, _faults, transport = faulty_setup () in
  let consumer = Consumer.create (dept_query "7") in
  (match Consumer.connect_persist consumer transport ~host:"m" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  (match Consumer.ensure_persist consumer transport ~host:"m" with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "reconnected a live connection"
  | Error e -> failwith (Consumer.sync_error_to_string e));
  ignore b

let test_tombstone_gc () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  let master = Master.create ~strategy:Master.Tombstone b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  apply b (Update.delete (dn "cn=a,o=xyz"));
  apply b (Update.delete (dn "cn=b,o=xyz"));
  check_int "tombstones retained for the live session" 2 (Master.history_size master);
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  (* Every session has acknowledged past both deletes: nothing can
     replay them again. *)
  check_int "tombstones pruned after poll" 0 (Master.history_size master);
  check_bool "converged" true (converged b consumer);
  (* With no sessions at all, deletes leave no tombstones behind. *)
  let b2 = make_backend () in
  apply b2 (Update.add (person "x" ~dept:"7" ()));
  let master2 = Master.create ~strategy:Master.Tombstone b2 in
  apply b2 (Update.delete (dn "cn=x,o=xyz"));
  check_int "no sessions, no tombstones" 0 (Master.history_size master2)

let test_persist_advances_synced_csn () =
  (* An idle persistent session must not pin changelog history: every
     pushed-through update (even a no-op for its filter) advances its
     acknowledged CSN. *)
  let b = make_backend () in
  let master = Master.create ~strategy:Master.Changelog b in
  let consumer = Consumer.create (dept_query "7") in
  let transport = transport_of master in
  (match Consumer.connect_persist consumer transport ~host:"master" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  for i = 0 to 19 do
    apply b (Update.add (person (Printf.sprintf "o%d" i) ~dept:"9" ()))
  done;
  check_int "changelog not pinned by idle persist" 0 (Master.history_size master)

(* --- Convergence property --------------------------------------------
   Arbitrary interleavings of updates and polls always leave the
   consumer's content equal to the master's current content. *)

type sim_op =
  | Op_add of int * int  (* name i, dept d *)
  | Op_delete of int
  | Op_move_dept of int * int
  | Op_rename of int * int
  | Op_poll
  | Op_expire

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i d -> Op_add (i, d)) (0 -- 20) (7 -- 9));
        (2, map (fun i -> Op_delete i) (0 -- 20));
        (3, map2 (fun i d -> Op_move_dept (i, d)) (0 -- 20) (7 -- 9));
        (1, map2 (fun i j -> Op_rename (i, j)) (0 -- 20) (21 -- 40));
        (2, return Op_poll);
        (1, return Op_expire);
      ])

let print_op = function
  | Op_add (i, d) -> Printf.sprintf "add(%d,%d)" i d
  | Op_delete i -> Printf.sprintf "delete(%d)" i
  | Op_move_dept (i, d) -> Printf.sprintf "move(%d,%d)" i d
  | Op_rename (i, j) -> Printf.sprintf "rename(%d,%d)" i j
  | Op_poll -> "poll"
  | Op_expire -> "expire"

let entry_sets_equal consumer backend query =
  let expected =
    List.sort
      (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b))
      (Content.current backend query)
  in
  let actual =
    List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) (Consumer.entries consumer)
  in
  List.length expected = List.length actual && List.for_all2 Entry.equal expected actual

let run_sim ops =
  let b = make_backend () in
  let master = Master.create b in
  let tr = transport_of master in
  let query = dept_query "7" in
  let consumer = Consumer.create query in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  let name i = Printf.sprintf "cn=p%d,o=xyz" i in
  List.iter
    (fun op ->
      match op with
      | Op_add (i, d) ->
          ignore (Backend.apply b (Update.add (person (Printf.sprintf "p%d" i) ~dept:(string_of_int d) ())))
      | Op_delete i -> ignore (Backend.apply b (Update.delete (dn (name i))))
      | Op_move_dept (i, d) ->
          ignore
            (Backend.apply b
               (Update.modify (dn (name i))
                  [ Update.replace_values "departmentNumber" [ string_of_int d ] ]))
      | Op_rename (i, j) -> (
          match Dn.rdn_of_string (Printf.sprintf "cn=p%d" j) with
          | Ok rdn -> ignore (Backend.apply b (Update.modify_dn (dn (name i)) rdn))
          | Error _ -> ())
      | Op_poll -> ( match poll tr consumer with Ok _ -> () | Error e -> failwith e)
      | Op_expire -> Server.expire (Master.server master) ~idle_limit:0)
    ops;
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  entry_sets_equal consumer b query

let prop_convergence =
  QCheck.Test.make ~name:"resync: converges under random ops and polls" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (0 -- 40) op_gen))
    run_sim

let prop_convergence_changelog =
  QCheck.Test.make ~name:"resync: changelog baseline also converges" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (0 -- 30) op_gen))
    (fun ops ->
      (* Replace Op_expire: baselines only define poll behaviour. *)
      (* Repurpose Op_expire as a log trim: the changelog must survive
         bounded history via the degraded fallback. *)
      let b = make_backend () in
      let master = Master.create ~strategy:Master.Changelog b in
      let tr = transport_of master in
      let query = dept_query "7" in
      let consumer = Consumer.create query in
      (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
      let name i = Printf.sprintf "cn=p%d,o=xyz" i in
      List.iter
        (fun op ->
          match op with
          | Op_add (i, d) ->
              ignore
                (Backend.apply b
                   (Update.add (person (Printf.sprintf "p%d" i) ~dept:(string_of_int d) ())))
          | Op_delete i -> ignore (Backend.apply b (Update.delete (dn (name i))))
          | Op_move_dept (i, d) ->
              ignore
                (Backend.apply b
                   (Update.modify (dn (name i))
                      [ Update.replace_values "departmentNumber" [ string_of_int d ] ]))
          | Op_rename (i, j) -> (
              match Dn.rdn_of_string (Printf.sprintf "cn=p%d" j) with
              | Ok rdn -> ignore (Backend.apply b (Update.modify_dn (dn (name i)) rdn))
              | Error _ -> ())
          | Op_poll -> (
              match poll tr consumer with Ok _ -> () | Error e -> failwith e)
          | Op_expire -> Backend.trim_log b ~before:(Csn.next (Backend.csn b)))
        ops;
      (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
      entry_sets_equal consumer b query)

(* --- Cookie round trips and session-id hygiene ----------------------- *)

let prop_reparent_cookie_roundtrip =
  QCheck.Test.make ~name:"resync: reparent_cookie round trips" ~count:200
    QCheck.(pair (int_bound 10_000) (int_bound 1_000_000))
    (fun (id, csn_i) ->
      let csn = Csn.of_int csn_i in
      let cookie = Protocol.cookie_of ~id ~csn in
      let parses_back =
        match Protocol.parse_cookie cookie with
        | Some (id', csn') -> id' = id && Csn.equal csn' csn
        | None -> false
      in
      let reparents =
        match Protocol.reparent_cookie cookie with
        | None -> false
        | Some foreign -> (
            (* The CSN survives, the session id becomes the reserved
               foreign marker 0, and reparenting is idempotent. *)
            match Protocol.parse_cookie foreign with
            | Some (0, csn') ->
                Csn.equal csn' csn
                && Protocol.reparent_cookie foreign = Some foreign
            | _ -> false)
      in
      parses_back && reparents)

let test_reparent_malformed () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "parse %S" s) true (Protocol.parse_cookie s = None);
      check_bool
        (Printf.sprintf "reparent %S" s)
        true
        (Protocol.reparent_cookie s = None))
    [
      ""; "rs"; "rs:"; "rs:1"; "rs:x:2"; "rs:1:y"; "sync:1:2"; "rs:1:2:3";
      (* OCaml literal syntax is not decimal digits. *)
      "rs:0x1:5"; "rs:1:-3"; "rs:-1:3"; "rs:+3:1"; "rs:1:+3"; "rs:1_000:2";
      "rs:1:2_0"; "rs:0b11:1"; "rs:1:0o7"; "rs:1:0u5";
      (* Empty, padded or overflowing numbers. *)
      "rs::5"; "rs:1:"; "rs: 1:2"; "rs:1:2 "; "rs:99999999999999999999:1";
      "rs:1:4611686018427387904"; "rs:9223372036854775813:1";
    ];
  (* Composite shard ids follow the same rule. *)
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "composite %S" s)
        true
        (Protocol.parse_composite_cookie s = None))
    [ "rsm:0x1@rs:1:2"; "rsm:-1@rs:1:2"; "rsm:+1@rs:1:2"; "rsm:1_0@rs:1:2"; "rsm:@rs:1:2" ]

(* Every cookie a server can mint parses back, over the whole range of
   session ids and CSNs, and so does every composite of them.
   [cookie_of] writes its digits into one buffer, so at every
   digit-width boundary it must also spell exactly the concatenation
   it replaced. *)
let prop_cookie_of_parses_back =
  let edge = QCheck.oneofl [ 0; 9; 10; 99; 100; max_int / 10; max_int - 1; max_int ] in
  let nat = QCheck.oneof [ QCheck.int_bound 1000; QCheck.int_bound max_int; edge ] in
  QCheck.Test.make ~name:"resync: cookie_of parses back" ~count:500
    QCheck.(triple nat nat nat)
    (fun (id, csn_i, shard) ->
      let csn = Csn.of_int csn_i in
      let cookie = Protocol.cookie_of ~id ~csn in
      let composite = Protocol.composite_cookie [ (shard, cookie) ] in
      String.equal cookie (String.concat ":" [ "rs"; string_of_int id; string_of_int csn_i ])
      && (match Protocol.parse_cookie cookie with
         | Some (id', csn') -> id' = id && Csn.equal csn' csn
         | None -> false)
      && Protocol.parse_composite_cookie composite = Some [ (shard, cookie) ])

(* Cookies are built without [Printf]; they must print exactly as the
   [Printf] forms they replaced, over every int and component list. *)
let prop_cookies_match_printf =
  QCheck.Test.make ~name:"resync: cookies print as their Printf forms" ~count:500
    QCheck.(
      triple int int
        (small_list (pair int (string_gen_of_size Gen.(0 -- 12) Gen.printable))))
    (fun (id, csn_i, comps) ->
      let csn = Csn.of_int csn_i in
      let printf_composite =
        "rsm:"
        ^ String.concat "|"
            (List.map
               (fun (shard, c) -> Printf.sprintf "%d@%s" shard c)
               (List.sort (fun (a, _) (b, _) -> Int.compare a b) comps))
      in
      String.equal (Protocol.cookie_of ~id ~csn) (Printf.sprintf "rs:%d:%d" id csn_i)
      && String.equal (Protocol.composite_cookie comps) printf_composite)

let test_canonical_composite () =
  List.iter
    (fun (s, want) ->
      check_bool (Printf.sprintf "canonical %S" s) want (Protocol.is_canonical_composite s))
    [
      ("rsm:", true);
      ("rsm:0@rs:1:2", true);
      ("rsm:0@rs:1:2|3@rs:4:5", true);
      ("rsm:10@rs:1:2|12@rs:1:2", true);
      (Protocol.composite_cookie [ (3, "rs:4:5"); (0, "rs:1:2") ], true);
      (* Unsorted, repeated or zero-padded shard ids. *)
      ("rsm:3@rs:4:5|0@rs:1:2", false);
      ("rsm:1@rs:4:5|1@rs:1:2", false);
      ("rsm:00@rs:1:2", false);
      ("rsm:0@rs:1:2|03@rs:4:5", false);
      (* Not composites at all. *)
      ("rs:1:2", false);
      ("rsm:1@", false);
      ("rsm:1@rs:1:2|", false);
      ("rsm:x@rs:1:2", false);
      ("rsm:rs:1:2", false);
    ]

let test_session_ids_never_zero () =
  (* Id 0 is the reserved foreign-session marker of reparented cookies:
     a master minting it would make a reparented consumer look locally
     established. *)
  let b = make_backend () in
  let master = Master.create b in
  for n = 1 to 50 do
    match
      Master.handle master { Protocol.mode = Protocol.Poll; cookie = None }
        (dept_query "7")
    with
    | Ok reply -> (
        match Option.bind reply.Protocol.cookie Protocol.parse_cookie with
        | Some (id, _) ->
            check_bool (Printf.sprintf "session %d id positive" n) true (id > 0)
        | None -> Alcotest.fail "poll reply carried no parseable cookie")
    | Error e -> failwith e
  done;
  check_int "fifty sessions" 50 (Master.session_count master)

let test_tombstone_newest_first () =
  (* Tombstone replay reads the deletes and renames out of the
     backend's log and sends their DNs newest first.  The context
     entry has no modifyTimestamp, so it counts as changed and, being
     outside the content, is deleted conservatively. *)
  let b = make_backend () in
  List.iter (fun n -> apply b (Update.add (person n ~dept:"7" ()))) [ "a"; "b"; "c" ];
  let master = Master.create ~strategy:Master.Tombstone b in
  let tr = transport_of master in
  let consumer = Consumer.create (dept_query "7") in
  (match poll tr consumer with Ok _ -> () | Error e -> failwith e);
  apply b (Update.delete (dn "cn=a,o=xyz"));
  apply b (Update.modify_dn (dn "cn=b,o=xyz") (Result.get_ok (Dn.rdn_of_string "cn=d")));
  apply b (Update.delete (dn "cn=c,o=xyz"));
  check_int "history" 3 (Master.history_size master);
  match poll tr consumer with
  | Ok reply ->
      Alcotest.(check (list string))
        "deletes newest first, then the renamed entry"
        [
          "delete cn=c,o=xyz";
          "delete cn=b,o=xyz";
          "delete cn=a,o=xyz";
          "delete o=xyz";
          "add cn=d,o=xyz";
        ]
        (List.filter_map
           (fun a ->
             match a with
             | Action.Delete d -> Some ("delete " ^ Dn.to_string d)
             | Action.Add e -> Some ("add " ^ Dn.to_string (Entry.dn e))
             | Action.Modify _ | Action.Retain _ -> None)
           reply.Protocol.actions)
  | Error e -> failwith e

(* --- Compiled classification = interpreted oracle --------------------
   Random queries over a small tree, and before/after images that may be
   absent, renamed, or sit exactly at the base, one level below it or
   deeper, so every scope edge and every transition comes up. *)

let dn_pool =
  [ "o=xyz"; "ou=a,o=xyz"; "cn=p1,ou=a,o=xyz"; "cn=p2,ou=a,o=xyz"; "cn=p1,o=xyz";
    "cn=q,cn=p1,ou=a,o=xyz" ]

let filter_pool =
  [ "(departmentNumber=7)"; "(objectClass=*)"; "(!(cn=p1))"; "(sn=p*)";
    "(|(departmentNumber=7)(cn=P2))"; "(&(objectClass=inetOrgPerson)(departmentNumber>=8))";
    "(mail=*)" ]

let image_gen =
  QCheck.Gen.(
    let* d = oneofl dn_pool in
    let* dept = oneofl [ "7"; "8"; "9" ] in
    let* sn = oneofl [ "p1"; "P2"; "q" ] in
    let* mail = oneofl [ []; [ "m@x" ] ] in
    return
      (Entry.make (dn d)
         [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ "p1" ]); ("sn", [ sn ]);
           ("departmentNumber", [ dept ]); ("mail", mail) ]))

let classify_case_gen =
  QCheck.Gen.(
    let* base = oneofl dn_pool in
    let* scope = oneofl [ Scope.Base; Scope.One; Scope.Sub ] in
    let* filter = oneofl filter_pool in
    let* before = opt image_gen in
    let* after =
      frequency
        [ (1, opt image_gen);
          (* the before-image modified in place, DN kept *)
          (1, return (Option.map (fun e -> Entry.replace_values e "departmentNumber" [ "7" ]) before)) ]
    in
    return (Query.make ~scope ~base:(dn base) (f filter), before, after))

let same_transition a b =
  match (a, b) with
  | Content.Stays_out, Content.Stays_out -> true
  | Moves_in x, Moves_in y | Changes_within x, Changes_within y -> Entry.equal x y
  | Moves_out x, Moves_out y -> Dn.equal x y
  | Renames_within x, Renames_within y ->
      Dn.equal x.old_dn y.old_dn && Entry.equal x.entry y.entry
  | (Stays_out | Moves_in _ | Moves_out _ | Changes_within _ | Renames_within _), _ -> false

let prop_classify_m_matches_oracle =
  QCheck.Test.make ~name:"resync: classify_m = classify oracle" ~count:1000
    (QCheck.make
       ~print:(fun ((q : Query.t), before, after) ->
         let image = function
           | None -> "none"
           | Some e -> Format.asprintf "%a" Entry.pp e
         in
         Printf.sprintf "base=%s scope=%s filter=%s\nbefore=%s\nafter=%s"
           (Dn.to_string q.base)
           (match q.scope with Scope.Base -> "base" | One -> "one" | Sub -> "sub")
           (Filter.to_string (q.filter :> Filter.t)) (image before) (image after))
       classify_case_gen)
    (fun (q, before, after) ->
      same_transition
        (Content.classify q ~before ~after)
        (Content.classify_m q ~before ~after))

let suite =
  [
    Alcotest.test_case "initial content" `Quick test_initial_content;
    Alcotest.test_case "incremental minimal" `Quick test_incremental_minimal;
    Alcotest.test_case "rename within content" `Quick test_rename_within_content;
    Alcotest.test_case "add+delete coalesces" `Quick test_add_then_delete_coalesces;
    Alcotest.test_case "degraded mode" `Quick test_degraded_mode;
    Alcotest.test_case "degraded prunes stale" `Quick test_degraded_prunes_stale;
    Alcotest.test_case "sync_end" `Quick test_sync_end;
    Alcotest.test_case "persist push" `Quick test_persist_push;
    Alcotest.test_case "persist filters content" `Quick test_persist_filters_out_of_content;
    Alcotest.test_case "attribute selection" `Quick test_attribute_selection_in_actions;
    Alcotest.test_case "malformed cookie" `Quick test_malformed_cookie;
    Alcotest.test_case "reparent malformed" `Quick test_reparent_malformed;
    Alcotest.test_case "session ids never zero" `Quick test_session_ids_never_zero;
    QCheck_alcotest.to_alcotest prop_reparent_cookie_roundtrip;
    Alcotest.test_case "session history exact" `Quick test_session_history_exact;
    Alcotest.test_case "changelog conservative" `Quick test_changelog_conservative;
    Alcotest.test_case "tombstone conservative" `Quick test_tombstone_conservative;
    Alcotest.test_case "history sizes" `Quick test_history_sizes;
    Alcotest.test_case "changelog trim degrades" `Quick test_changelog_trim_degrades;
    Alcotest.test_case "dropped reply recovers" `Quick test_dropped_reply_recovers;
    Alcotest.test_case "expired session resumes" `Quick test_expired_session_resumes;
    Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "persist reconnect" `Quick test_persist_reconnect;
    Alcotest.test_case "ensure_persist noop" `Quick test_ensure_persist_noop_when_alive;
    Alcotest.test_case "tombstone gc" `Quick test_tombstone_gc;
    Alcotest.test_case "persist advances csn" `Quick test_persist_advances_synced_csn;
    QCheck_alcotest.to_alcotest prop_convergence;
    QCheck_alcotest.to_alcotest prop_convergence_changelog;
    QCheck_alcotest.to_alcotest prop_cookie_of_parses_back;
    QCheck_alcotest.to_alcotest prop_cookies_match_printf;
    Alcotest.test_case "canonical composite" `Quick test_canonical_composite;
    Alcotest.test_case "tombstone deletes newest first" `Quick test_tombstone_newest_first;
    QCheck_alcotest.to_alcotest prop_classify_m_matches_oracle;
  ]
