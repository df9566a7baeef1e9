(* Tests for the cascading replication topology: tree = star
   convergence, referral admission, degraded resume through an
   intermediate node, re-parenting after a node death, and a
   randomized routed = naive equivalence property for the node's
   persist relay on a 2-tier chain. *)
open Ldap
open Ldap_resync

(* A push channel that always accepts: no flow control modelled. *)
let push_of_fn f = { Protocol.pc_send = (fun a -> f a; Protocol.Push_ok); pc_close = ignore }
module R = Ldap_replication
module T = Ldap_topology

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "1") () =
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

let dept_query d =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%d)" d))

(* A directory with [depts] departments of [each] people, named so the
   same update script can be replayed onto twin backends. *)
let build_directory ?(depts = 8) ?(each = 5) () =
  let b = make_backend () in
  for d = 1 to depts do
    for i = 1 to each do
      apply b
        (Update.add (person (Printf.sprintf "p%d_%d" d i) ~dept:(string_of_int d) ()))
    done
  done;
  b

let update_burst b =
  apply b (Update.add (person "new3" ~dept:"3" ()));
  apply b (Update.delete (dn "cn=p1_1,o=xyz"));
  apply b
    (Update.modify (dn "cn=p2_1,o=xyz")
       [ Update.replace_values "departmentNumber" [ "5" ] ]);
  apply b
    (Update.modify (dn "cn=p4_2,o=xyz")
       [ Update.replace_values "mail" [ "p4_2@xyz" ] ])

let must = function Ok v -> v | Error e -> failwith e

let sorted_dns entries =
  List.sort compare (List.map (fun e -> Dn.canonical (Entry.dn e)) entries)

let leaf_contents t =
  List.map
    (fun leaf ->
      List.concat_map
        (fun q -> sorted_dns (T.Leaf.content leaf q))
        (T.Leaf.subscriptions leaf))
    (T.Topology.leaves t)

(* --- Tree vs star ----------------------------------------------------- *)

let build_shape shape n =
  let b = build_directory () in
  let covers = List.init 8 (fun d -> dept_query (d + 1)) in
  let leaf_queries = List.init n (fun i -> dept_query (1 + (i mod 8))) in
  (b, must (T.Topology.build ~shape ~covers ~leaf_queries b))

let test_tree_matches_star () =
  let n = 1000 in
  let b_star, star = build_shape T.Topology.Star n in
  let b_tree, tree = build_shape (T.Topology.Tree { arity = 4 }) n in
  (* Same burst on both twins, then run to convergence. *)
  update_burst b_star;
  update_burst b_tree;
  (match T.Topology.rounds_to_converge star with
  | Some r -> check_int "star lag is one round" 1 r
  | None -> Alcotest.fail "star did not converge");
  (match T.Topology.rounds_to_converge tree with
  | Some r -> check_int "tree lag is two rounds" 2 r
  | None -> Alcotest.fail "tree did not converge");
  (* Every leaf of the tree holds exactly what its star twin holds. *)
  check_bool "tree contents = star contents" true
    (leaf_contents star = leaf_contents tree);
  (* The root of the tree serves only the interior nodes: 4 nodes x 8
     covers, regardless of the 1000 leaves; the star holds one session
     per leaf. *)
  check_int "star root sessions" n
    (Master.session_count (T.Topology.master star));
  check_int "tree root sessions" 32
    (Master.session_count (T.Topology.master tree));
  check_bool "tree root bytes below star" true
    (T.Topology.root_link_bytes tree < T.Topology.root_link_bytes star)

let test_root_sessions_flat_in_leaves () =
  let _, small = build_shape (T.Topology.Tree { arity = 4 }) 80 in
  let _, large = build_shape (T.Topology.Tree { arity = 4 }) 400 in
  check_int "same root sessions at 80 and 400 leaves"
    (Master.session_count (T.Topology.master small))
    (Master.session_count (T.Topology.master large))

let test_chain_lag_is_depth () =
  let b, t = build_shape (T.Topology.Chain 2) 8 in
  apply b (Update.add (person "late7" ~dept:"7" ()));
  match T.Topology.rounds_to_converge t with
  | Some r -> check_int "chain of 2 lags three rounds" 3 r
  | None -> Alcotest.fail "chain did not converge"

(* --- Admission and referrals ------------------------------------------ *)

let node_fixture ?(covers = [ dept_query 7 ]) () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"7" ()));
  apply b (Update.add (person "c" ~dept:"8" ()));
  let t = T.Topology.create b in
  let node =
    must (T.Topology.add_node t ~name:"n1" ~parent:(T.Topology.root t) ~covers)
  in
  (b, t, node)

(* One resync exchange served by the endpoint a node registered on the
   topology's transport. *)
let n1_handle transport ?push request q =
  match Transport.endpoint transport "n1" with
  | Some ep -> ep.Transport.ep_handle ~push request q
  | None -> Alcotest.fail "no endpoint n1"

let node_handle t = n1_handle (T.Topology.transport t)

let test_referral_on_uncovered_subscription () =
  let _, t, _ = node_fixture () in
  (* Directly: the node rejects with a referral to its upstream. *)
  (match node_handle t { Protocol.mode = Protocol.Poll; cookie = None } (dept_query 8) with
  | Ok _ -> Alcotest.fail "uncovered subscription admitted"
  | Error msg -> (
      match T.Node.referral_of_error msg with
      | None -> Alcotest.fail ("not a referral: " ^ msg)
      | Some url ->
          check_bool "refers to the root" true
            (Result.map (fun r -> r.Referral.host) (Referral.parse url) = Ok (T.Topology.root t))));
  (* Through a leaf: the subscription chases the referral to the root
     and is served there. *)
  let leaf = must (T.Topology.add_leaf t ~name:"l1" ~parent:"n1" (dept_query 8)) in
  check_bool "leaf re-parented to root" true (T.Leaf.parent leaf = T.Topology.root t);
  check_int "content served upstream" 1 (List.length (T.Leaf.content leaf (dept_query 8)))

let test_admitted_subscription_served_at_node () =
  let b, t, _ = node_fixture () in
  let leaf = must (T.Topology.add_leaf t ~name:"l1" ~parent:"n1" (dept_query 7)) in
  check_bool "leaf stayed at the node" true (T.Leaf.parent leaf = "n1");
  check_int "initial content" 2 (List.length (T.Leaf.content leaf (dept_query 7)));
  (* An update propagates root -> node -> leaf in two rounds. *)
  apply b (Update.add (person "d" ~dept:"7" ()));
  T.Topology.sync_round t;
  T.Topology.sync_round t;
  check_int "update arrived through the node" 3
    (List.length (T.Leaf.content leaf (dept_query 7)))

(* --- Known-session polls ------------------------------------------------ *)

let poll t ?cookie q = node_handle t { Protocol.mode = Protocol.Poll; cookie } q

let reply_of = function
  | Ok r -> r
  | Error e -> Alcotest.fail ("poll refused: " ^ e)

let reply_cookie r =
  match r.Protocol.cookie with Some c -> c | None -> Alcotest.fail "no cookie"

let kind_is k r = r.Protocol.kind = k

(* A session whose stored query was removed must not be served from the
   removed consumer: it is re-admitted, and served degraded from a
   container still installed. *)
let test_removed_cover_fresh_container () =
  let broad = Query.make ~base:(dn "o=xyz") (f "(departmentNumber=*)") in
  let _, t, node = node_fixture ~covers:[ dept_query 7; broad ] () in
  let first = reply_of (poll t (dept_query 7)) in
  check_int "initial content" 2 (List.length first.Protocol.actions);
  let again = reply_of (poll t ~cookie:(reply_cookie first) (dept_query 7)) in
  check_bool "known session polls incrementally" true (kind_is Protocol.Incremental again);
  R.Filter_replica.remove_filter (T.Node.replica node) (dept_query 7);
  let moved = reply_of (poll t ~cookie:(reply_cookie again) (dept_query 7)) in
  check_bool "served degraded from the remaining cover" true (kind_is Protocol.Degraded moved);
  check_int "both members accounted for" 2 (List.length moved.Protocol.actions);
  let next = reply_of (poll t ~cookie:(reply_cookie moved) (dept_query 7)) in
  check_bool "then incrementally again" true (kind_is Protocol.Incremental next);
  check_int "with nothing new" 0 (List.length next.Protocol.actions)

let test_removed_cover_referral () =
  let _, t, node = node_fixture () in
  let first = reply_of (poll t (dept_query 7)) in
  R.Filter_replica.remove_filter (T.Node.replica node) (dept_query 7);
  match poll t ~cookie:(reply_cookie first) (dept_query 7) with
  | Ok _ -> Alcotest.fail "served from a removed cover"
  | Error msg ->
      check_bool "referred upstream" true (Option.is_some (T.Node.referral_of_error msg))

let test_csn_mismatch_and_unknown_session_degrade () =
  let b, t, _ = node_fixture () in
  let first = reply_of (poll t (dept_query 7)) in
  let id, csn =
    match Protocol.parse_cookie (reply_cookie first) with
    | Some ic -> ic
    | None -> Alcotest.fail "unparsable cookie"
  in
  apply b (Update.add (person "d" ~dept:"7" ()));
  T.Topology.sync_round t;
  let stale = Protocol.cookie_of ~id ~csn:(Csn.of_int (Csn.to_int csn + 7)) in
  check_bool "CSN mismatch degrades" true
    (kind_is Protocol.Degraded (reply_of (poll t ~cookie:stale (dept_query 7))));
  let unknown = Protocol.cookie_of ~id:999 ~csn in
  let r = reply_of (poll t ~cookie:unknown (dept_query 7)) in
  check_bool "unknown session degrades" true (kind_is Protocol.Degraded r);
  check_int "new member resent, old ones retained" 3 (List.length r.Protocol.actions)

(* A live session whose stored query gets a new consumer between two
   polls — the query removed and installed again, or the replica's
   durable store reopened under it — is served from the new consumer.
   The retired one is polled by nobody, so a leaf answered from it
   would never see the updates that follow.  Each swap also brings in
   a member the leaf has not been sent, which the new consumer's spine
   does not list as a change after the session's cursor. *)
let converge_after_update b t name =
  apply b (Update.add (person name ~dept:"7" ()));
  for i = 1 to 8 do
    apply b
      (Update.modify (dn "cn=a,o=xyz")
         [ Update.replace_values "mail" [ Printf.sprintf "%s%d@xyz" name i ] ]);
    T.Topology.sync_round t
  done;
  check_bool ("leaf converges after " ^ name) true
    (Option.is_some (T.Topology.rounds_to_converge t))

let test_replaced_consumer_resumes () =
  let b, t, node = node_fixture () in
  let replica = T.Node.replica node in
  let m = Ldap_store.Medium.memory () in
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"n1"));
  let leaf = must (T.Topology.add_leaf t ~name:"l1" ~parent:"n1" (dept_query 7)) in
  converge_after_update b t "d";
  apply b (Update.add (person "x" ~dept:"7" ()));
  R.Filter_replica.remove_filter replica (dept_query 7);
  must (R.Filter_replica.install_filter replica (dept_query 7));
  converge_after_update b t "e";
  apply b (Update.add (person "y" ~dept:"7" ()));
  T.Node.sync node;
  R.Filter_replica.detach_store replica;
  R.Filter_replica.remove_filter replica (dept_query 7);
  ignore (must (R.Filter_replica.open_store replica m ~prefix:"n1"));
  converge_after_update b t "f";
  check_bool "leaf stayed at the node" true (T.Leaf.parent leaf = "n1");
  check_int "one session" 1 (T.Node.session_count node)

(* A member modified and then modified back between two polls is
   unchanged for its session, although the node's store now holds
   another record: the cursor compares the image it sent by content,
   not by record.  The session selects attributes, so the stamped
   modifyTimestamp is not part of its image. *)
let test_modified_back_sends_nothing () =
  let b, t, node = node_fixture () in
  let q = Query.make ~attrs:(Query.Select [ "cn"; "mail" ]) ~base:(dn "o=xyz") (f "(departmentNumber=7)") in
  let first = reply_of (poll t q) in
  check_int "initial content" 2 (List.length first.Protocol.actions);
  let a = dn "cn=a,o=xyz" in
  apply b (Update.modify a [ Update.replace_values "mail" [ "a@xyz" ] ]);
  T.Node.sync node;
  apply b (Update.modify a [ Update.replace_values "mail" [] ]);
  T.Node.sync node;
  let back = reply_of (poll t ~cookie:(reply_cookie first) q) in
  check_bool "polled incrementally" true (kind_is Protocol.Incremental back);
  check_int "no action for content sent already" 0 (List.length back.Protocol.actions);
  apply b (Update.modify a [ Update.replace_values "mail" [ "a@xyz" ] ]);
  T.Node.sync node;
  let changed = reply_of (poll t ~cookie:(reply_cookie back) q) in
  check_bool "a real change is one Modify" true
    (match changed.Protocol.actions with [ Action.Modify e ] -> Dn.equal (Entry.dn e) a | _ -> false)

(* The node's serving counters for a fixed script: the values the
   full admission path produced for every poll before known sessions
   skipped it. *)
let test_cursor_stats_fixed_script () =
  let b, t = build_shape (T.Topology.Tree { arity = 2 }) 24 in
  update_burst b;
  for _ = 1 to 3 do
    T.Topology.sync_round t
  done;
  for d = 1 to 8 do
    apply b
      (Update.modify
         (dn (Printf.sprintf "cn=p%d_3,o=xyz" d))
         [ Update.replace_values "mail" [ Printf.sprintf "m%d@xyz" d ] ]);
    T.Topology.sync_round t
  done;
  T.Topology.sync_round t;
  let polls, scanned, rescans =
    List.fold_left
      (fun (p, s, r) n ->
        let p', s', r' = T.Node.cursor_stats n in
        (p + p', s + s', r + r'))
      (0, 0, 0) (T.Topology.nodes t)
  in
  check_int "polls" 288 polls;
  check_int "scanned" 39 scanned;
  check_int "rescans" 0 rescans

(* --- Degraded resume through an intermediate node --------------------- *)

let test_reparented_cookie_degrades_with_retain () =
  let b, t, _ = node_fixture () in
  let consumer = Consumer.create (dept_query 7) in
  let transport = T.Topology.transport t in
  let sync () =
    match Consumer.sync_over consumer transport ~host:"n1" with
    | Ok outcome -> outcome
    | Error e -> failwith (Consumer.sync_error_to_string e)
  in
  ignore (sync ());
  check_int "initial content" 2 (Consumer.size consumer);
  (* One entry changes, one stays; the node picks the change up. *)
  apply b
    (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "a@x" ] ]);
  T.Topology.sync_round t;
  (* Simulate a re-parent onto this node: the translated cookie keeps
     the CSN but carries the foreign-session id, so the node must
     answer degraded — resending the changed entry, retaining the
     unchanged one. *)
  (match Consumer.cookie consumer with
  | Some c -> Consumer.set_cookie consumer (Protocol.reparent_cookie c)
  | None -> Alcotest.fail "no cookie");
  let outcome = sync () in
  check_bool "degraded reply" true
    (outcome.Consumer.reply.Protocol.kind = Protocol.Degraded);
  check_bool "recovery counted" true outcome.Consumer.resynced;
  let kinds =
    List.sort_uniq compare
      (List.map Action.kind_name outcome.Consumer.reply.Protocol.actions)
  in
  check_bool "retain for the unchanged entry" true (List.mem "retain" kinds);
  check_int "only the changed entry retransmitted" 1
    (Protocol.entries_cost outcome.Consumer.reply);
  check_int "content intact" 2 (Consumer.size consumer)

let test_trimmed_root_history_heals_through_node () =
  let b, t, node = node_fixture () in
  let leaf = must (T.Topology.add_leaf t ~name:"l1" ~parent:"n1" (dept_query 7)) in
  (* The root forgets the node's sessions (history trimmed / expired)
     while updates keep flowing. *)
  apply b (Update.add (person "d" ~dept:"7" ()));
  Server.expire (Master.server (T.Topology.master t)) ~idle_limit:0;
  check_int "no sessions left at root" 0
    (Master.session_count (T.Topology.master t));
  T.Topology.sync_round t;
  T.Topology.sync_round t;
  check_bool "node recovered by degraded resync" true
    ((T.Node.stats node).R.Stats.resyncs >= 1);
  check_bool "leaf converged through the recovered node" true
    (T.Topology.leaf_converged t leaf)

(* --- Killing an interior node ----------------------------------------- *)

let test_kill_node_reparents_and_converges () =
  let b, t = build_shape (T.Topology.Tree { arity = 2 }) 8 in
  check_int "two interior nodes" 2 (List.length (T.Topology.nodes t));
  let victim = List.hd (T.Topology.nodes t) in
  let orphan_names =
    List.filter_map
      (fun leaf ->
        if T.Leaf.parent leaf = T.Node.host victim then Some (T.Leaf.name leaf)
        else None)
      (T.Topology.leaves t)
  in
  check_bool "victim served some leaves" true (orphan_names <> []);
  (* Updates in flight when the node dies mid-stream. *)
  update_burst b;
  T.Topology.kill_node t victim;
  (match T.Topology.rounds_to_converge t with
  | Some _ -> ()
  | None -> Alcotest.fail "did not converge after node death");
  List.iter
    (fun leaf ->
      if List.mem (T.Leaf.name leaf) orphan_names then begin
        check_bool
          (T.Leaf.name leaf ^ " re-parented to the root")
          true
          (T.Leaf.parent leaf = T.Topology.root t);
        check_bool
          (T.Leaf.name leaf ^ " resumed degraded, not from scratch")
          true
          ((T.Leaf.stats leaf).R.Stats.resyncs >= 1)
      end)
    (T.Topology.leaves t);
  check_bool "all leaves converged" true
    (List.for_all (T.Topology.leaf_converged t) (T.Topology.leaves t))

(* --- Routed = naive equivalence on a 2-tier chain ---------------------
   Twin chains fed the same update script, the node (and root) of one
   using predicate-indexed relay dispatch and the other naive fan-out.
   Every downstream observable — poll replies, persist push streams,
   session counts — must be identical. *)

let chain_filters =
  [
    ("(departmentnumber=7)", false);
    ("(departmentnumber=7)", true);
    ("(departmentnumber=8)", true);
    ("(departmentnumber>=8)", true);
    ("(sn=p1*)", true);
    ("(sn=p2*)", false);
  ]

type chain_op =
  | Op_add of int * int
  | Op_delete of int
  | Op_move_dept of int * int
  | Op_set_mail of int
  | Op_round  (* node pulls from root, relaying persist pushes *)
  | Op_poll  (* downstream consumers poll the node *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i d -> Op_add (i, d)) (0 -- 15) (7 -- 9));
        (2, map (fun i -> Op_delete i) (0 -- 15));
        (3, map2 (fun i d -> Op_move_dept (i, d)) (0 -- 15) (7 -- 9));
        (2, map (fun i -> Op_set_mail i) (0 -- 15));
        (3, return Op_round);
        (2, return Op_poll);
      ])

let op_print = function
  | Op_add (i, d) -> Printf.sprintf "add(%d,%d)" i d
  | Op_delete i -> Printf.sprintf "delete(%d)" i
  | Op_move_dept (i, d) -> Printf.sprintf "move(%d,%d)" i d
  | Op_set_mail i -> Printf.sprintf "mail(%d)" i
  | Op_round -> "round"
  | Op_poll -> "poll"

let action_equal a b =
  match (a, b) with
  | Action.Add e1, Action.Add e2 | Action.Modify e1, Action.Modify e2 ->
      Entry.equal e1 e2
  | Action.Delete d1, Action.Delete d2 | Action.Retain d1, Action.Retain d2 ->
      Dn.equal d1 d2
  | _ -> false

let reply_equal (a : Protocol.reply) (b : Protocol.reply) =
  a.Protocol.kind = b.Protocol.kind
  && a.Protocol.cookie = b.Protocol.cookie
  && List.length a.Protocol.actions = List.length b.Protocol.actions
  && List.for_all2 action_equal a.Protocol.actions b.Protocol.actions

type twin_session = {
  query : Query.t;
  persist : bool;
  mutable cookies : string option * string option;  (* routed, naive *)
  pushed_r : Action.t list ref;
  pushed_n : Action.t list ref;
}

let chain_person i ~dept =
  person (Printf.sprintf "p%d" i) ~dept:(string_of_int dept) ()

(* Root master and node [n1] over one transport, both dispatching
   with [dispatch]. *)
let make_chain dispatch =
  let b = make_backend () in
  List.iter (fun i -> apply b (Update.add (chain_person i ~dept:7))) [ 0; 1; 2 ];
  let transport = Transport.create (Network.create ()) in
  Transport.add_master transport ~name:"root" (Master.create ~dispatch b);
  let node = T.Node.create ~dispatch transport ~host:"n1" ~upstream:"root" in
  List.iter
    (fun q -> must (T.Node.install_cover node q))
    [
      Query.make ~base:(dn "o=xyz") (f "(departmentnumber=*)");
      Query.make ~base:(dn "o=xyz") (f "(sn=p*)");
    ];
  (b, transport, node)

let sync_session transport session ~cookie ~pushed =
  let mode = if session.persist then Protocol.Persist else Protocol.Poll in
  let push =
    if session.persist then
      Some (push_of_fn (fun a -> pushed := a :: !pushed))
    else None
  in
  match n1_handle transport ?push { Protocol.mode; cookie } session.query with
  | Ok reply -> reply
  | Error e -> failwith e

let equivalent_chain_run ops =
  let br, tr, nr = make_chain Master.Routed in
  let bn, tn, nn = make_chain Master.Naive in
  let apply_both op =
    ignore (Backend.apply br op);
    ignore (Backend.apply bn op)
  in
  let sessions =
    List.map
      (fun (fs, persist) ->
        {
          query = Query.make ~base:(dn "o=xyz") (f fs);
          persist;
          cookies = (None, None);
          pushed_r = ref [];
          pushed_n = ref [];
        })
      chain_filters
  in
  let sync_all () =
    List.iter
      (fun s ->
        let cr, cn = s.cookies in
        let rr = sync_session tr s ~cookie:cr ~pushed:s.pushed_r in
        let rn = sync_session tn s ~cookie:cn ~pushed:s.pushed_n in
        if not (reply_equal rr rn) then
          QCheck.Test.fail_reportf "divergent reply for %s (%s)"
            (Filter.to_string (s.query.Query.filter :> Filter.t))
            (if s.persist then "persist" else "poll");
        s.cookies <- (rr.Protocol.cookie, rn.Protocol.cookie))
      sessions
  in
  let round () =
    T.Node.sync nr;
    T.Node.sync nn
  in
  round ();
  sync_all ();
  let name i = Printf.sprintf "cn=p%d,o=xyz" i in
  List.iter
    (fun op ->
      match op with
      | Op_add (i, d) -> apply_both (Update.add (chain_person i ~dept:d))
      | Op_delete i -> apply_both (Update.delete (dn (name i)))
      | Op_move_dept (i, d) ->
          apply_both
            (Update.modify (dn (name i))
               [ Update.replace_values "departmentNumber" [ string_of_int d ] ])
      | Op_set_mail i ->
          apply_both
            (Update.modify (dn (name i))
               [ Update.replace_values "mail" [ Printf.sprintf "p%d@new" i ] ])
      | Op_round -> round ()
      | Op_poll -> sync_all ())
    ops;
  round ();
  sync_all ();
  List.iter
    (fun s ->
      let pr = List.rev !(s.pushed_r) and pn = List.rev !(s.pushed_n) in
      if
        not (List.length pr = List.length pn && List.for_all2 action_equal pr pn)
      then
        QCheck.Test.fail_reportf "divergent push stream for %s (%d vs %d)"
          (Filter.to_string (s.query.Query.filter :> Filter.t))
          (List.length pr) (List.length pn))
    sessions;
  if T.Node.session_count nr <> T.Node.session_count nn then
    QCheck.Test.fail_reportf "divergent session counts";
  true

let chain_equivalence_test =
  QCheck.Test.make ~count:12 ~name:"node routed = naive (2-tier chain)"
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map op_print ops))
       QCheck.Gen.(list_size (60 -- 100) op_gen))
    equivalent_chain_run

(* --- Streaming = materialized across history strategies ---------------
   For a random update script and random poll points, the streamed
   action multiset applied to the previous snapshot must reproduce the
   materialized selection (eval_over_entries over the backend's entry
   stream) exactly — under all three history strategies.  The lossy
   strategies (Changelog, Tombstone) may over-send conservative
   deletes and unchanged re-adds but must still reconcile; for the
   lossless Session_history strategy the incremental stream's per-DN
   net effect is additionally required to be exactly the diff, with
   no gratuitous resends. *)

type sm_op =
  | Sm_add of int * int
  | Sm_del of int
  | Sm_move of int * int
  | Sm_mail of int
  | Sm_poll

let sm_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i d -> Sm_add (i, d)) (0 -- 15) (7 -- 9));
        (2, map (fun i -> Sm_del i) (0 -- 15));
        (3, map2 (fun i d -> Sm_move (i, d)) (0 -- 15) (7 -- 9));
        (2, map (fun i -> Sm_mail i) (0 -- 15));
        (4, return Sm_poll);
      ])

let sm_print = function
  | Sm_add (i, d) -> Printf.sprintf "add(%d,%d)" i d
  | Sm_del i -> Printf.sprintf "del(%d)" i
  | Sm_move (i, d) -> Printf.sprintf "move(%d,%d)" i d
  | Sm_mail i -> Printf.sprintf "mail(%d)" i
  | Sm_poll -> "poll"

let sm_queries =
  [ "(departmentnumber=7)"; "(departmentnumber>=8)"; "(sn=p1*)" ]

(* dn -> content hash of the selected image. *)
let oracle_map q b =
  let h = Hashtbl.create 32 in
  List.iter
    (fun e -> Hashtbl.replace h (Dn.canonical (Entry.dn e)) (Entry.content_hash64 e))
    (R.Replica.eval_over_entries Schema.default q (Content_store.to_seq (Backend.content_store b)));
  h

let hashtbl_dump h =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let sm_run_strategy strategy ops =
  let b = make_backend () in
  List.iter (fun i -> apply b (Update.add (chain_person i ~dept:7))) [ 0; 1; 2 ];
  let m = Master.create ~strategy b in
  let tr = Net_fixture.transport_of m in
  let mail_seq = ref 0 in
  let sessions =
    List.map
      (fun fs ->
        let q = Query.make ~base:(dn "o=xyz") (f fs) in
        (q, Consumer.create q, Hashtbl.create 32))
      sm_queries
  in
  let poll () =
    List.iter
      (fun (q, consumer, snapshot) ->
        let reply =
          match Net_fixture.poll tr consumer with
          | Ok r -> r
          | Error e -> failwith e
        in
        let prev = Hashtbl.copy snapshot in
        List.iter
          (fun a ->
            match a with
            | Action.Add e | Action.Modify e ->
                Hashtbl.replace snapshot
                  (Dn.canonical (Entry.dn e))
                  (Entry.content_hash64 e)
            | Action.Delete d -> Hashtbl.remove snapshot (Dn.canonical d)
            | Action.Retain _ -> ())
          reply.Protocol.actions;
        let oracle = oracle_map q b in
        if hashtbl_dump snapshot <> hashtbl_dump oracle then
          QCheck.Test.fail_reportf
            "%s: streamed snapshot diverged from materialized selection for %s"
            (match strategy with
            | Master.Session_history -> "session-history"
            | Master.Changelog -> "changelog"
            | Master.Tombstone -> "tombstone")
            (Filter.to_string (q.Query.filter :> Filter.t));
        (* The consumer's own application must agree with both. *)
        if not (Dn.Set.equal (Content.current_dns b q) (Consumer.dns consumer))
        then QCheck.Test.fail_reportf "consumer content diverged";
        (* Lossless strategy: the incremental stream carries the net
           diff and nothing gratuitous.  The buffer is per-update, so
           one DN may receive several actions (delete then re-add);
           the per-DN *net* effect must match the materialized diff,
           and a DN outside the diff may only appear through such a
           multi-action chain — a single-action resend of an unchanged
           image would be a redundant transmission. *)
        if
          strategy = Master.Session_history
          && reply.Protocol.kind = Protocol.Incremental
        then begin
          let net = Hashtbl.create 8 and counts = Hashtbl.create 8 in
          List.iter
            (fun a ->
              let record k v =
                Hashtbl.replace net k v;
                Hashtbl.replace counts k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
              in
              match a with
              | Action.Add e | Action.Modify e ->
                  record
                    (Dn.canonical (Entry.dn e))
                    (Some (Entry.content_hash64 e))
              | Action.Delete d -> record (Dn.canonical d) None
              | Action.Retain _ -> ())
            reply.Protocol.actions;
          let fail fmt = QCheck.Test.fail_reportf fmt (Filter.to_string (q.Query.filter :> Filter.t)) in
          let in_diff = Hashtbl.create 8 in
          Hashtbl.iter
            (fun k v ->
              match Hashtbl.find_opt prev k with
              | Some v' when v' = v -> ()
              | _ ->
                  Hashtbl.replace in_diff k ();
                  if Hashtbl.find_opt net k <> Some (Some v) then
                    fail "session-history stream for %s misses a changed member")
            oracle;
          Hashtbl.iter
            (fun k _ ->
              if not (Hashtbl.mem oracle k) then begin
                Hashtbl.replace in_diff k ();
                if Hashtbl.find_opt net k <> Some None then
                  fail "session-history stream for %s misses a departure"
              end)
            prev;
          Hashtbl.iter
            (fun k _ ->
              if
                (not (Hashtbl.mem in_diff k))
                && Hashtbl.find_opt counts k = Some 1
              then fail "session-history stream for %s resends an unchanged entry")
            net
        end)
      sessions
  in
  let name i = Printf.sprintf "cn=p%d,o=xyz" i in
  poll ();
  List.iter
    (fun op ->
      match op with
      | Sm_add (i, d) -> ignore (Backend.apply b (Update.add (chain_person i ~dept:d)))
      | Sm_del i -> ignore (Backend.apply b (Update.delete (dn (name i))))
      | Sm_move (i, d) ->
          ignore
            (Backend.apply b
               (Update.modify (dn (name i))
                  [ Update.replace_values "departmentNumber" [ string_of_int d ] ]))
      | Sm_mail i ->
          incr mail_seq;
          ignore
            (Backend.apply b
               (Update.modify (dn (name i))
                  [
                    Update.replace_values "mail"
                      [ Printf.sprintf "p%d-%d@xyz" i !mail_seq ];
                  ]))
      | Sm_poll -> poll ())
    ops;
  poll ();
  true

let sm_run ops =
  List.for_all
    (fun strategy -> sm_run_strategy strategy ops)
    [ Master.Session_history; Master.Changelog; Master.Tombstone ]

let streaming_materialized_test =
  QCheck.Test.make ~count:15
    ~name:"poll stream = materialized selection (3 strategies)"
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map sm_print ops))
       QCheck.Gen.(list_size (40 -- 80) sm_gen))
    sm_run

(* --- Session-history high-water mark ----------------------------------
   A leaf that stops polling must not balloon the master: its pending
   buffer is capped at the high-water mark, after which the session is
   retired and the next poll escalates to a degraded snapshot-diff. *)

let test_history_hwm_bounds_master () =
  let b = build_directory () in
  let m = Master.create b in
  Master.set_history_limit m (Some 8);
  let fast = Consumer.create (dept_query 7) in
  let slow = Consumer.create (dept_query 8) in
  let tr = Net_fixture.transport_of m in
  let sync c = match Net_fixture.poll tr c with Ok r -> r | Error e -> failwith e in
  ignore (sync fast);
  ignore (sync slow);
  check_int "both sessions live" 2 (Master.session_count m);
  (* 120 updates inside the slow session's content while only the fast
     consumer keeps polling. *)
  let peak = ref 0 in
  for i = 1 to 120 do
    apply b (Update.add (person (Printf.sprintf "hwm%d" i) ~dept:"8" ()));
    if i mod 5 = 0 then ignore (sync fast);
    let _, per_session_max = Master.pending_stats m in
    peak := max !peak per_session_max
  done;
  check_bool "pending never exceeded the high-water mark" true (!peak <= 8);
  check_int "slow session was retired" 1 (Master.session_count m);
  (* The slow consumer escalates to a degraded snapshot-diff and still
     converges. *)
  let reply = sync slow in
  check_bool "escalated to degraded" true
    (reply.Protocol.kind = Protocol.Degraded);
  check_bool "slow consumer converged" true
    (Dn.Set.equal (Content.current_dns b (dept_query 8)) (Consumer.dns slow));
  check_bool "fast consumer stayed incremental" true
    ((sync fast).Protocol.kind = Protocol.Incremental)

(* --- Acknowledged CSN --------------------------------------------------

   [Leaf.acked_csn] reads each consumer's cached cookie parse; it must
   equal the definition that parsed every cookie on every call, through
   a missing cookie, a reparented (id 0) cookie, an unparsable one, and
   a cookie replaced by a different string. *)

let parsed_acked_csn leaf =
  List.fold_left
    (fun acc q ->
      match R.Filter_replica.consumer_for (T.Leaf.replica leaf) q with
      | None -> Csn.zero
      | Some c -> (
          match Consumer.cookie c with
          | None -> Csn.zero
          | Some cookie -> (
              match Protocol.parse_cookie cookie with
              | Some (_, csn) -> if Csn.( < ) csn acc then csn else acc
              | None -> Csn.zero)))
    (Csn.of_int max_int) (T.Leaf.subscriptions leaf)
  |> fun m -> if Csn.equal m (Csn.of_int max_int) then Csn.zero else m

let test_acked_csn_matches_parse () =
  let b = build_directory () in
  let t = T.Topology.create b in
  let leaf = must (T.Topology.add_leaf t ~name:"leaf" ~parent:(T.Topology.root t) (dept_query 1)) in
  must (T.Leaf.subscribe leaf (dept_query 2));
  let same label =
    check_int label
      (Csn.to_int (parsed_acked_csn leaf))
      (Csn.to_int (T.Leaf.acked_csn leaf))
  in
  same "fresh subscriptions";
  apply b (Update.add (person "late" ~dept:"2" ()));
  T.Leaf.sync leaf;
  same "after a poll";
  check_bool "acknowledged something" true (Csn.to_int (T.Leaf.acked_csn leaf) > 0);
  let c1 = Option.get (R.Filter_replica.consumer_for (T.Leaf.replica leaf) (dept_query 1)) in
  let c2 = Option.get (R.Filter_replica.consumer_for (T.Leaf.replica leaf) (dept_query 2)) in
  let original = Consumer.cookie c1 in
  Consumer.set_cookie c1 None;
  same "no cookie";
  check_int "no cookie acknowledges nothing" 0 (Csn.to_int (T.Leaf.acked_csn leaf));
  Consumer.set_cookie c1 (Option.bind original Protocol.reparent_cookie);
  same "reparented cookie";
  Consumer.set_cookie c1 (Some "rs:1:0x10");
  same "unparsable cookie";
  Consumer.set_cookie c1 (Some (Protocol.cookie_of ~id:9 ~csn:(Csn.of_int 1)));
  same "replaced cookie";
  check_int "replaced cookie re-parsed" 1 (Csn.to_int (T.Leaf.acked_csn leaf));
  let original2 = Consumer.cookie c2 in
  Consumer.set_cookie c2 (Some "garbage");
  same "second unparsable";
  Consumer.set_cookie c1 original;
  Consumer.set_cookie c2 original2;
  same "restored cookies";
  apply b (Update.add (person "later" ~dept:"1" ()));
  T.Leaf.sync leaf;
  same "after another poll"


(* --- Persist cut ---------------------------------------------------------
   A persist consumer that stops draining is cut from its server: a node
   cuts it on the first stalled push, the root once the outbound queue
   passes its bound (0 here, the node's bound).  Either way the session
   goes, the channel closes, and reconnecting with the cookie resyncs
   degraded to the oracle's content. *)

let persist_cut ~label ~transport ~host ~sessions ~commit b =
  let q = dept_query 3 in
  let before = sessions () in
  let consumer = Consumer.create q in
  (match Consumer.connect_persist consumer transport ~host ~from:"leaf" with
  | Ok _ -> ()
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_int (label ^ ": persistent") (before + 1) (sessions ());
  Consumer.pause_connection consumer;
  commit ();
  check_int (label ^ ": session cut") before (sessions ());
  check_bool (label ^ ": channel closed") false (Consumer.persist_alive consumer);
  (match Consumer.ensure_persist consumer transport ~host ~from:"leaf" with
  | Ok (Some o) ->
      check_bool (label ^ ": degraded reconnect") true
        (o.Consumer.reply.Protocol.kind = Protocol.Degraded)
  | Ok None -> Alcotest.fail (label ^ ": expected a reconnection")
  | Error e -> failwith (Consumer.sync_error_to_string e));
  check_bool (label ^ ": converged") true
    (Dn.Set.equal (Content.current_dns b q) (Consumer.dns consumer))

let test_persist_cut () =
  let b = build_directory () in
  let t = T.Topology.create b in
  let node =
    must (T.Topology.add_node t ~name:"n1" ~parent:(T.Topology.root t) ~covers:[ dept_query 3 ])
  in
  let transport = T.Topology.transport t in
  persist_cut ~label:"node" ~transport ~host:"n1"
    ~sessions:(fun () -> T.Node.session_count node)
    ~commit:(fun () ->
      apply b (Update.add (person "cut1" ~dept:"3" ()));
      T.Node.sync node)
    b;
  let m = T.Topology.master t in
  Server.set_queue_limit (Master.server m) (Some 0);
  persist_cut ~label:"root" ~transport ~host:(T.Topology.root t)
    ~sessions:(fun () -> Master.session_count m)
    ~commit:(fun () -> apply b (Update.add (person "cut2" ~dept:"3" ())))
    b;
  check_int "root queue overflowed once" 1 (Master.push_overflows m)

let suite =
  [
    Alcotest.test_case "tree matches star (1000 leaves)" `Slow test_tree_matches_star;
    Alcotest.test_case "root sessions flat in leaves" `Quick
      test_root_sessions_flat_in_leaves;
    Alcotest.test_case "chain lag is depth" `Quick test_chain_lag_is_depth;
    Alcotest.test_case "referral on uncovered subscription" `Quick
      test_referral_on_uncovered_subscription;
    Alcotest.test_case "admitted subscription served at node" `Quick
      test_admitted_subscription_served_at_node;
    Alcotest.test_case "removed cover: fresh container" `Quick
      test_removed_cover_fresh_container;
    Alcotest.test_case "removed cover: referral" `Quick test_removed_cover_referral;
    Alcotest.test_case "CSN mismatch and unknown session degrade" `Quick
      test_csn_mismatch_and_unknown_session_degrade;
    Alcotest.test_case "replaced consumer: session resumes" `Quick
      test_replaced_consumer_resumes;
    Alcotest.test_case "modified back between polls: no action" `Quick
      test_modified_back_sends_nothing;
    Alcotest.test_case "cursor stats for a fixed script" `Quick
      test_cursor_stats_fixed_script;
    Alcotest.test_case "re-parented cookie degrades with retain" `Quick
      test_reparented_cookie_degrades_with_retain;
    Alcotest.test_case "trimmed root history heals through node" `Quick
      test_trimmed_root_history_heals_through_node;
    Alcotest.test_case "killed node re-parents leaves" `Quick
      test_kill_node_reparents_and_converges;
    Alcotest.test_case "history high-water mark bounds master" `Quick
      test_history_hwm_bounds_master;
    QCheck_alcotest.to_alcotest chain_equivalence_test;
    QCheck_alcotest.to_alcotest streaming_materialized_test;
    Alcotest.test_case "acked csn = parsed cookies" `Quick test_acked_csn_matches_parse;
    Alcotest.test_case "persist cut at node and root" `Quick test_persist_cut;
  ]
