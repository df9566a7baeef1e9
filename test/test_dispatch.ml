(* Tests for predicate-indexed update dispatch: anchor unit tests for
   the index itself, and a randomized equivalence property checking
   that routed dispatch is observably identical to classifying every
   update against every session. *)
open Ldap
open Ldap_containment
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

let entry name attrs =
  Entry.make (dn (Printf.sprintf "cn=%s,o=xyz" name)) (("cn", [ name ]) :: attrs)

(* Candidate ids for a single-entry "add" probe. *)
let hits idx e =
  let c = Predicate_index.affected idx ~before:None ~after:(Some e) in
  let ids = ref [] in
  Predicate_index.iter (fun id -> ids := id :: !ids) c;
  List.sort Int.compare !ids

let test_eq_anchor () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(sn=ada)");
  Predicate_index.add idx 2 (f "(sn=bob)");
  Alcotest.(check (list int)) "sn=ada routes to 1" [ 1 ]
    (hits idx (entry "x" [ ("sn", [ "Ada" ]) ]));
  Alcotest.(check (list int)) "sn=carol routes nowhere" []
    (hits idx (entry "x" [ ("sn", [ "carol" ]) ]));
  Alcotest.(check (list int)) "multi-valued hits both" [ 1; 2 ]
    (hits idx (entry "x" [ ("sn", [ "ada"; "bob" ]) ]))

let test_integer_spelling_anchor () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(age=07)");
  Alcotest.(check (list int)) "(age=07) hit by age 7" [ 1 ]
    (hits idx (entry "x" [ ("age", [ "7" ]) ]))

let test_prefix_anchor () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(sn=smi*)");
  Predicate_index.add idx 2 (f "(sn=abcdefg*)");  (* longer than the anchor width *)
  Alcotest.(check (list int)) "smith hits smi*" [ 1 ]
    (hits idx (entry "x" [ ("sn", [ "Smith" ]) ]));
  Alcotest.(check (list int)) "jones hits nothing" []
    (hits idx (entry "x" [ ("sn", [ "jones" ]) ]));
  Alcotest.(check (list int)) "truncated prefix still routes" [ 2 ]
    (hits idx (entry "x" [ ("sn", [ "abcdefgh" ]) ]));
  (* Truncation widens: a value sharing only the truncated prefix is a
     (sound) false candidate. *)
  Alcotest.(check (list int)) "truncation over-approximates" [ 2 ]
    (hits idx (entry "x" [ ("sn", [ "abcdzzz" ]) ]))

let test_presence_and_bare_substring () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(mail=*)");
  Predicate_index.add idx 2 (f "(mail=*corp*)");  (* no initial: attr anchor *)
  Alcotest.(check (list int)) "mail present hits both" [ 1; 2 ]
    (hits idx (entry "x" [ ("mail", [ "a@corp" ]) ]));
  Alcotest.(check (list int)) "no mail hits nothing" []
    (hits idx (entry "x" [ ("sn", [ "ada" ]) ]))

let test_range_anchors () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(age>=30)");
  Predicate_index.add idx 2 (f "(age<=20)");
  Alcotest.(check (list int)) "35 is >=30" [ 1 ] (hits idx (entry "x" [ ("age", [ "35" ]) ]));
  Alcotest.(check (list int)) "10 is <=20" [ 2 ] (hits idx (entry "x" [ ("age", [ "10" ]) ]));
  Alcotest.(check (list int)) "25 hits neither" []
    (hits idx (entry "x" [ ("age", [ "25" ]) ]));
  Alcotest.(check (list int)) "30 is >=30 (boundary)" [ 1 ]
    (hits idx (entry "x" [ ("age", [ "30" ]) ]))

let test_boolean_anchors () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(&(sn=ada)(departmentnumber=7))");
  Predicate_index.add idx 2 (f "(|(sn=bob)(sn=carol))");
  Alcotest.(check (list int)) "no fallback" [] (hits idx (entry "x" [ ("l", [ "basel" ]) ]));
  Alcotest.(check (list int)) "AND anchored on a conjunct" [ 1 ]
    (hits idx (entry "x" [ ("sn", [ "ada" ]); ("departmentnumber", [ "7" ]) ]));
  Alcotest.(check (list int)) "OR anchored on every branch" [ 2 ]
    (hits idx (entry "x" [ ("sn", [ "carol" ]) ]))

let test_fallback () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(!(sn=ada))");
  Predicate_index.add idx 2 (f "(|(sn=ada)(!(mail=a@x)))");  (* one bad branch poisons OR *)
  Predicate_index.add idx 3 (f "(sn=ada)");
  Alcotest.(check (list int)) "three registered" [ 1; 2; 3 ]
    (hits idx (entry "x" [ ("sn", [ "ada" ]) ]));
  (* Fallback subscribers are candidates for every update, even one
     touching none of their attributes. *)
  Alcotest.(check (list int)) "fallback always candidates" [ 1; 2 ]
    (hits idx (entry "x" [ ("l", [ "basel" ]) ]))

let test_remove_and_replace () =
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(sn=ada)");
  Predicate_index.add idx 2 (f "(!(sn=ada))");
  Predicate_index.remove idx 1;
  Predicate_index.remove idx 2;
  Alcotest.(check (list int)) "fallback cleared" [] (hits idx (entry "x" [ ("l", [ "basel" ]) ]));
  Alcotest.(check (list int)) "nothing routed" []
    (hits idx (entry "x" [ ("sn", [ "ada" ]) ]));
  (* Re-adding an id replaces its registration. *)
  Predicate_index.add idx 7 (f "(sn=ada)");
  Predicate_index.add idx 7 (f "(sn=bob)");
  Alcotest.(check (list int)) "old anchor gone" []
    (hits idx (entry "x" [ ("sn", [ "ada" ]) ]));
  Alcotest.(check (list int)) "new anchor live" [ 7 ]
    (hits idx (entry "x" [ ("sn", [ "bob" ]) ]))

let test_before_and_after_probed () =
  (* A modify that moves an entry out of a filter's content only shows
     the filter's value in the before-image; routing must probe both
     sides. *)
  let idx = Predicate_index.create () in
  Predicate_index.add idx 1 (f "(departmentnumber=7)");
  let was = entry "x" [ ("departmentnumber", [ "7" ]) ] in
  let now = entry "x" [ ("departmentnumber", [ "9" ]) ] in
  let c = Predicate_index.affected idx ~before:(Some was) ~after:(Some now) in
  check_bool "leaving entry still routed" true (Predicate_index.mem c 1);
  let c = Predicate_index.affected idx ~before:(Some now) ~after:(Some was) in
  check_bool "entering entry routed" true (Predicate_index.mem c 1)

(* --- Equivalence property ---------------------------------------------
   Twin backends fed the same update stream, one master with routed
   dispatch and one naive.  Every observable — poll replies (kind,
   actions, cookie), pushed persist actions, session counts — must be
   identical for every strategy. *)

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person i ~dept ~mail =
  let base =
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ Printf.sprintf "p%d" i ]);
      ("sn", [ Printf.sprintf "p%d" i ]);
      ("departmentNumber", [ string_of_int dept ]);
    ]
  in
  Entry.make
    (dn (Printf.sprintf "cn=p%d,o=xyz" i))
    (if mail then ("mail", [ Printf.sprintf "p%d@xyz" i ]) :: base else base)

let make_backend () =
  let b = Backend.create ~indexed:[ "departmentnumber" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

(* Session filters: anchorable shapes of every kind plus fallback. *)
let session_filters =
  [
    "(departmentnumber=7)";
    "(departmentnumber=8)";
    "(sn=p1*)";
    "(|(departmentnumber=7)(sn=p2*))";
    "(&(objectclass=inetorgperson)(departmentnumber>=8))";
    "(mail=*)";
    "(!(departmentnumber=7))";
  ]

type sim_op =
  | Op_add of int * int * bool  (* name i, dept d, with mail *)
  | Op_delete of int
  | Op_move_dept of int * int
  | Op_set_mail of int
  | Op_rename of int * int
  | Op_poll
  | Op_expire

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map3 (fun i d m -> Op_add (i, d, m)) (0 -- 20) (7 -- 9) bool);
        (2, map (fun i -> Op_delete i) (0 -- 20));
        (3, map2 (fun i d -> Op_move_dept (i, d)) (0 -- 20) (7 -- 9));
        (2, map (fun i -> Op_set_mail i) (0 -- 20));
        (1, map2 (fun i j -> Op_rename (i, j)) (0 -- 20) (21 -- 40));
        (2, return Op_poll);
        (1, return Op_expire);
      ])

let op_print = function
  | Op_add (i, d, m) -> Printf.sprintf "add(%d,%d,%b)" i d m
  | Op_delete i -> Printf.sprintf "delete(%d)" i
  | Op_move_dept (i, d) -> Printf.sprintf "move(%d,%d)" i d
  | Op_set_mail i -> Printf.sprintf "mail(%d)" i
  | Op_rename (i, j) -> Printf.sprintf "rename(%d,%d)" i j
  | Op_poll -> "poll"
  | Op_expire -> "expire"

let action_equal a b =
  match (a, b) with
  | Action.Add e1, Action.Add e2 | Action.Modify e1, Action.Modify e2 -> Entry.equal e1 e2
  | Action.Delete d1, Action.Delete d2 | Action.Retain d1, Action.Retain d2 ->
      Dn.equal d1 d2
  | _ -> false

let reply_equal (a : Protocol.reply) (b : Protocol.reply) =
  a.Protocol.kind = b.Protocol.kind
  && a.Protocol.cookie = b.Protocol.cookie
  && List.length a.Protocol.actions = List.length b.Protocol.actions
  && List.for_all2 action_equal a.Protocol.actions b.Protocol.actions

(* One replica endpoint driven against both masters in lockstep. *)
type twin_session = {
  query : Query.t;
  persist : bool;
  mutable cookies : string option * string option;  (* routed, naive *)
  pushed_r : Action.t list ref;  (* newest first *)
  pushed_n : Action.t list ref;
}

let sync_session master session ~cookie ~pushed =
  let mode = if session.persist then Protocol.Persist else Protocol.Poll in
  let push =
    if session.persist then
      Some (push_of_fn (fun a -> pushed := a :: !pushed))
    else None
  in
  match Server.handle (Master.server master) ?push { Protocol.mode; cookie } session.query with
  | Ok reply -> reply
  | Error e -> failwith e

let equivalent_run strategy ops =
  let br = make_backend () and bn = make_backend () in
  let mr = Master.create ~strategy ~dispatch:Master.Routed br in
  let mn = Master.create ~strategy ~dispatch:Master.Naive bn in
  let apply op =
    ignore (Backend.apply br op);
    ignore (Backend.apply bn op)
  in
  (* Seed some content before the sessions exist. *)
  List.iter (fun i -> apply (Update.add (person i ~dept:7 ~mail:(i mod 2 = 0)))) [ 0; 1; 2 ];
  let sessions =
    List.concat_map
      (fun fs ->
        let query = Query.make ~base:(dn "o=xyz") (f fs) in
        List.map
          (fun persist ->
            {
              query;
              persist;
              cookies = (None, None);
              pushed_r = ref [];
              pushed_n = ref [];
            })
          [ false; true ])
      session_filters
  in
  let sync_all () =
    List.iter
      (fun s ->
        let cr, cn = s.cookies in
        let rr = sync_session mr s ~cookie:cr ~pushed:s.pushed_r in
        let rn = sync_session mn s ~cookie:cn ~pushed:s.pushed_n in
        if not (reply_equal rr rn) then
          QCheck.Test.fail_reportf "divergent reply for %s (%s)"
            (Filter.to_string (s.query.Query.filter :> Filter.t))
            (if s.persist then "persist" else "poll");
        s.cookies <- (rr.Protocol.cookie, rn.Protocol.cookie))
      sessions
  in
  sync_all ();
  let name i = Printf.sprintf "cn=p%d,o=xyz" i in
  List.iter
    (fun op ->
      match op with
      | Op_add (i, d, m) -> apply (Update.add (person i ~dept:d ~mail:m))
      | Op_delete i -> apply (Update.delete (dn (name i)))
      | Op_move_dept (i, d) ->
          apply
            (Update.modify (dn (name i))
               [ Update.replace_values "departmentNumber" [ string_of_int d ] ])
      | Op_set_mail i ->
          apply
            (Update.modify (dn (name i))
               [ Update.replace_values "mail" [ Printf.sprintf "p%d@new" i ] ])
      | Op_rename (i, j) -> (
          match Dn.rdn_of_string (Printf.sprintf "cn=p%d" j) with
          | Ok rdn -> apply (Update.modify_dn (dn (name i)) rdn)
          | Error _ -> ())
      | Op_poll -> sync_all ()
      | Op_expire ->
          Server.expire (Master.server mr) ~idle_limit:3;
          Server.expire (Master.server mn) ~idle_limit:3)
    ops;
  sync_all ();
  List.iter
    (fun s ->
      let pr = List.rev !(s.pushed_r) and pn = List.rev !(s.pushed_n) in
      if
        not (List.length pr = List.length pn && List.for_all2 action_equal pr pn)
      then
        QCheck.Test.fail_reportf "divergent push stream for %s (%d vs %d actions)"
          (Filter.to_string (s.query.Query.filter :> Filter.t))
          (List.length pr) (List.length pn))
    sessions;
  if Master.session_count mr <> Master.session_count mn then
    QCheck.Test.fail_reportf "divergent session counts";
  if persistent_count mr <> persistent_count mn then
    QCheck.Test.fail_reportf "divergent persistent counts";
  true

let equivalence_test strategy tag =
  QCheck.Test.make ~count:15 ~name:(Printf.sprintf "routed = naive (%s)" tag)
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map op_print ops))
       QCheck.Gen.(list_size (80 -- 120) op_gen))
    (equivalent_run strategy)

(* --- Probing fresh and evaluated images ----------------------------------
   An image no filter has evaluated yet must yield the candidates an
   evaluated one does, and the candidates must cover every filter that
   matches either image.  Attribute spellings include aliases and
   uppercase, so the name-to-canonical-id step is exercised. *)

let probe_filters =
  [
    "(departmentnumber=7)";
    "(dept>=8)";
    "(surname=p1*)";
    "(|(cn=ada)(mail=*))";
    "(&(objectclass=inetorgperson)(age<=30))";
    "(commonName=B*)";
    "(!(sn=x))";
  ]

let probe_attr_gen =
  QCheck.Gen.(
    pair
      (oneofl [ "departmentNumber"; "dept"; "SN"; "surname"; "CN"; "commonName"; "mail"; "age"; "l" ])
      (list_size (1 -- 2) (oneofl [ "7"; "08"; "9"; "p1x"; "P12"; "Ada"; "bob"; " b  c "; "30"; "x" ])))

let candidates c =
  let ids = ref [] in
  Predicate_index.iter (fun id -> ids := id :: !ids) c;
  List.sort Int.compare !ids

let prop_probe_without_view =
  QCheck.Test.make ~count:300 ~name:"dispatch: probe without a view = probe with one"
    (QCheck.make
       ~print:(fun (a, b) ->
         let show attrs =
           String.concat "; "
             (List.map (fun (n, vs) -> n ^ "=" ^ String.concat "," vs) attrs)
         in
         show a ^ " | " ^ show b)
       QCheck.Gen.(pair (list_size (0 -- 5) probe_attr_gen) (list_size (0 -- 5) probe_attr_gen)))
    (fun (a, b) ->
      let idx = Predicate_index.create () in
      List.iteri (fun i fs -> Predicate_index.add idx i (f fs)) probe_filters;
      let image attrs = Entry.make (dn "cn=p,o=xyz") (("objectclass", [ "inetOrgPerson" ]) :: attrs) in
      let fresh_before = image a and fresh_after = image b in
      let cold = candidates (Predicate_index.affected idx ~before:(Some fresh_before) ~after:(Some fresh_after)) in
      let warm_before = image a and warm_after = image b in
      ignore (Entry.compiled warm_before);
      ignore (Entry.compiled warm_after);
      let warm = candidates (Predicate_index.affected idx ~before:(Some warm_before) ~after:(Some warm_after)) in
      let matches fs e = Filter.matches (f fs) e in
      cold = warm
      && List.for_all Fun.id
           (List.mapi
              (fun i fs ->
                (not (matches fs fresh_before || matches fs fresh_after)) || List.mem i cold)
              probe_filters))

(* A modify's after-image shares every slot the modify left alone
   with its before-image, and [affected] probes those once: that must
   lose no candidate either image alone would bring. *)
let prop_shared_slots_probed_once =
  QCheck.Test.make ~count:300 ~name:"dispatch: affected = union of single-image probes"
    (QCheck.make
       ~print:(fun (a, b) ->
         let show attrs =
           String.concat "; " (List.map (fun (n, vs) -> n ^ "=" ^ String.concat "," vs) attrs)
         in
         show a ^ " | " ^ show b)
       QCheck.Gen.(pair (list_size (0 -- 5) probe_attr_gen) (list_size (1 -- 3) probe_attr_gen)))
    (fun (a, changes) ->
      let idx = Predicate_index.create () in
      List.iteri (fun i fs -> Predicate_index.add idx i (f fs)) probe_filters;
      let before = Entry.make (dn "cn=p,o=xyz") (("objectclass", [ "inetOrgPerson" ]) :: a) in
      let item (attr, values) =
        { Update.mod_kind = (if List.length values = 1 then Add_values else Replace_values); mod_attr = attr; mod_values = values }
      in
      let after = Result.get_ok (Entry.edit ~stamp:"7" before (List.map item changes)) in
      let both = candidates (Predicate_index.affected idx ~before:(Some before) ~after:(Some after)) in
      let old = candidates (Predicate_index.affected idx ~before:(Some before) ~after:None) in
      let fresh = candidates (Predicate_index.affected idx ~before:None ~after:(Some after)) in
      both = List.sort_uniq Int.compare (old @ fresh))

let suite =
  [
    Alcotest.test_case "eq anchors" `Quick test_eq_anchor;
    Alcotest.test_case "integer spellings" `Quick test_integer_spelling_anchor;
    Alcotest.test_case "prefix anchors" `Quick test_prefix_anchor;
    Alcotest.test_case "presence anchors" `Quick test_presence_and_bare_substring;
    Alcotest.test_case "range anchors" `Quick test_range_anchors;
    Alcotest.test_case "boolean anchors" `Quick test_boolean_anchors;
    Alcotest.test_case "fallback set" `Quick test_fallback;
    Alcotest.test_case "remove/replace" `Quick test_remove_and_replace;
    Alcotest.test_case "before and after probed" `Quick test_before_and_after_probed;
    QCheck_alcotest.to_alcotest (equivalence_test Master.Session_history "session-history");
    QCheck_alcotest.to_alcotest (equivalence_test Master.Changelog "changelog");
    QCheck_alcotest.to_alcotest (equivalence_test Master.Tombstone "tombstone");
    QCheck_alcotest.to_alcotest prop_probe_without_view;
    QCheck_alcotest.to_alcotest prop_shared_slots_probed_once;
  ]
