(* Tests for the DN-keyed content store: slot/tombstone accounting,
   change-spine enumeration (dedup, ordering, trim-forced rescan), CSN
   stamping, and a randomized catch-up property: an old snapshot plus
   the DNs of [changes_since] always reconciles to the current
   content, or is told to rescan — never served a silent gap. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

let entry name v =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ v ]) ]

let dns_of = List.map (fun d -> Dn.canonical d)

let test_upsert_find_remove () =
  let s = Content_store.create () in
  check_int "empty" 0 (Content_store.size s);
  Content_store.upsert s (entry "a" "1");
  Content_store.upsert s (entry "b" "1");
  check_int "two live" 2 (Content_store.size s);
  check_bool "mem" true (Content_store.find s (dn "cn=a,o=xyz") <> None);
  (* Replacement keeps one slot and returns the latest image. *)
  Content_store.upsert s (entry "a" "2");
  check_int "still two" 2 (Content_store.size s);
  check_int "two slots" 2 (Content_store.interned s);
  (match Content_store.find s (dn "cn=a,o=xyz") with
  | Some e -> check_bool "latest image" true (Entry.equal e (entry "a" "2"))
  | None -> Alcotest.fail "lost entry a");
  (* Removal tombstones the slot: size drops, interned does not. *)
  Content_store.remove s (dn "cn=a,o=xyz");
  check_int "one live" 1 (Content_store.size s);
  check_int "slot survives" 2 (Content_store.interned s);
  check_bool "gone" true (Content_store.find s (dn "cn=a,o=xyz") = None);
  let a_id = Option.get (Content_store.id_of s (dn "cn=a,o=xyz")) in
  check_bool "tombstone empty by id" true (Content_store.get s a_id = None);
  (* Removing an absent DN is a no-op and records no event. *)
  let r = Content_store.rev s in
  Content_store.remove s (dn "cn=zz,o=xyz");
  check_int "no event for absent dn" r (Content_store.rev s);
  (* Revival reuses the DN; the store holds it once. *)
  Content_store.upsert s (entry "a" "3");
  check_int "revived" 2 (Content_store.size s);
  check_bool "revival keeps the slot id" true
    (Content_store.id_of s (dn "cn=a,o=xyz") = Some a_id
    && Content_store.get s a_id <> None);
  check_int "revived once" 2
    (List.length
       (List.filter
          (fun e -> Dn.equal (Entry.dn e) (dn "cn=a,o=xyz") || Dn.equal (Entry.dn e) (dn "cn=b,o=xyz"))
          (Content_store.to_list s)))

let test_iteration_order () =
  let s = Content_store.create () in
  List.iter (fun n -> Content_store.upsert s (entry n "1")) [ "c"; "a"; "b" ];
  Content_store.remove s (dn "cn=a,o=xyz");
  let names e = List.hd (Entry.get e "cn") in
  check_bool "seq skips tombstones, keeps insertion order" true
    (List.map names (List.of_seq (Content_store.to_seq s)) = [ "c"; "b" ]);
  check_bool "fold agrees with seq" true
    (Content_store.fold s ~init:[] ~f:(fun acc e -> names e :: acc)
    = [ "b"; "c" ])

let test_changes_since () =
  let s = Content_store.create () in
  Content_store.upsert s (entry "a" "1");
  Content_store.upsert s (entry "b" "1");
  let r = Content_store.rev s in
  check_bool "nothing changed yet" true (Content_store.changes_since s r = Some []);
  (* Two touches of one DN dedup to a single element, oldest-first by
     first occurrence. *)
  Content_store.upsert s (entry "c" "1");
  Content_store.upsert s (entry "a" "2");
  Content_store.upsert s (entry "c" "2");
  (match Content_store.changes_since s r with
  | Some l ->
      check_bool "deduped oldest-first" true
        (dns_of l = [ "cn=c,o=xyz"; "cn=a,o=xyz" ])
  | None -> Alcotest.fail "spine should cover r");
  (* Deletes are events too. *)
  Content_store.remove s (dn "cn=b,o=xyz");
  (match Content_store.changes_since s r with
  | Some l -> check_int "delete recorded" 3 (List.length l)
  | None -> Alcotest.fail "spine should cover r");
  check_bool "from the head: empty" true
    (Content_store.changes_since s (Content_store.rev s) = Some [])

let floor s = Content_store.rev s - Content_store.spine_length s

let test_trim_and_rescan () =
  let s = Content_store.create () in
  for i = 1 to 40 do
    Content_store.upsert s (entry (Printf.sprintf "e%d" i) "1")
  done;
  Content_store.trim_spine s ~keep:12;
  check_int "rev counts every event" 40 (Content_store.rev s);
  check_int "floor advanced" 28 (floor s);
  check_bool "pre-floor cursor must rescan" true
    (Content_store.changes_since s 0 = None);
  (match Content_store.changes_since s (floor s) with
  | Some l -> check_int "covered tail enumerates" 12 (List.length l)
  | None -> Alcotest.fail "floor itself is covered");
  Content_store.trim_spine s ~keep:3;
  check_int "explicit trim" 3 (Content_store.spine_length s);
  check_bool "older cursor now rescans" true
    (Content_store.changes_since s (40 - 4) = None)

let test_csn_stamps () =
  let s = Content_store.create () in
  check_bool "empty range" true (Content_store.spine_csn_range s = None);
  let commit csn op =
    Content_store.attach s { Update.csn = Csn.of_int csn; op; before = None; after = None }
  in
  Content_store.upsert s (entry "a" "1");
  commit 5 (Update.add (entry "a" "1"));
  Content_store.upsert s (entry "b" "1");
  commit 9 (Update.add (entry "b" "1"));
  Content_store.upsert s (entry "c" "1");
  Content_store.remove s (dn "cn=a,o=xyz");
  commit 12 (Update.delete (dn "cn=a,o=xyz"));
  check_int "records" 3 (List.length (Content_store.log_since s Csn.zero));
  check_bool "one record per event" true
    (match commit 13 (Update.delete (dn "cn=b,o=xyz")) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (match Content_store.spine_csn_range s with
  | Some (lo, hi) ->
      check_int "oldest stamp" 5 (Csn.to_int lo);
      check_int "newest stamp" 12 (Csn.to_int hi)
  | None -> Alcotest.fail "stamped spine has a range");
  check_bool "footprint positive" true (Content_store.approx_bytes s > 0)

(* --- Randomized catch-up property -------------------------------------

   Model the store as a plain (name -> value) map.  At a random point a
   cursor snapshots the map and records the revision; after more random
   ops it catches up: [changes_since] either lists the DNs to re-read
   (patching the snapshot from the live store must reproduce the
   current model exactly) or demands a rescan — and it may only demand
   a rescan when the spine really was trimmed past the cursor. *)

type cs_op = Cs_put of int * int | Cs_del of int

let cs_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i v -> Cs_put (i, v)) (0 -- 12) (0 -- 5));
        (2, map (fun i -> Cs_del i) (0 -- 12));
      ])

let cs_print = function
  | Cs_put (i, v) -> Printf.sprintf "put(%d,%d)" i v
  | Cs_del i -> Printf.sprintf "del(%d)" i

let name_of i = Printf.sprintf "e%d" i
let dn_of i = dn (Printf.sprintf "cn=%s,o=xyz" (name_of i))
let key_of i = Dn.canonical (dn_of i)

(* The spine is trimmed to [keep] events after the ops, as its bound
   would trim it after 32,768 of them. *)
let run_catch_up (keep, before, after) =
  let s = Content_store.create () in
  let model = Hashtbl.create 16 in
  let apply op =
    match op with
    | Cs_put (i, v) ->
        Hashtbl.replace model (key_of i) v;
        Content_store.upsert s (entry (name_of i) (string_of_int v))
    | Cs_del i ->
        Hashtbl.remove model (key_of i);
        Content_store.remove s (dn_of i)
  in
  List.iter apply before;
  let snapshot = Hashtbl.copy model in
  let cursor = Content_store.rev s in
  List.iter apply after;
  Option.iter (fun keep -> Content_store.trim_spine s ~keep) keep;
  (match Content_store.changes_since s cursor with
  | None ->
      if floor s <= cursor then
        QCheck.Test.fail_reportf
          "rescan demanded but spine covers the cursor (floor %d, cursor %d)" (floor s) cursor
  | Some changed ->
      List.iter
        (fun d ->
          let key = Dn.canonical d in
          match Content_store.find s d with
          | Some e -> Hashtbl.replace snapshot key (int_of_string (List.hd (Entry.get e "sn")))
          | None -> Hashtbl.remove snapshot key)
        changed;
      let dump h =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
      in
      if dump snapshot <> dump model then
        QCheck.Test.fail_reportf "catch-up diverged from model");
  (* The store itself always matches the model. *)
  Content_store.size s = Hashtbl.length model

let catch_up_test =
  QCheck.Test.make ~count:200 ~name:"content-store: snapshot + changes_since = current"
    (QCheck.make
       ~print:(fun (keep, before, after) ->
         Printf.sprintf "keep=%s before=[%s] after=[%s]"
           (Option.fold ~none:"-" ~some:string_of_int keep)
           (String.concat " " (List.map cs_print before))
           (String.concat " " (List.map cs_print after)))
       QCheck.Gen.(
         triple (opt (0 -- 40)) (list_size (0 -- 30) cs_gen) (list_size (0 -- 30) cs_gen)))
    run_catch_up

(* --- Indexed search against the scan ------------------------------------

   [search] reads candidates off postings; [Replica.eval_over_entries]
   scans every entry.  Both must keep the same entries in the same
   order, whatever the postings have been through. *)

let scan q s = Ldap_replication.Replica.eval_over_entries Schema.default q (Content_store.to_seq s)
let indexed q s = Ldap_replication.Replica.eval_over_store q s
let names = List.map (fun e -> Dn.canonical (Entry.dn e))

let same q s =
  let a = indexed q s and b = scan q s in
  List.length a = List.length b && List.for_all2 Entry.equal a b

let person ?(parent = "ou=a,o=xyz") i attrs =
  Entry.make
    (dn (Printf.sprintf "cn=e%d,%s" i parent))
    ([ ("objectclass", [ "person" ]); ("cn", [ Printf.sprintf "e%d" i ]) ] @ attrs)

let sub_q filter = Query.make ~base:(dn "o=xyz") (Filter.of_string_exn filter)

let check_search label s filter expected =
  let q = sub_q filter in
  Alcotest.(check (list string)) (label ^ " " ^ filter) expected (names (indexed q s));
  check_bool (label ^ " = scan " ^ filter) true (same q s)

let dept i = Printf.sprintf "cn=e%d,ou=a,o=xyz" i

let test_search_follows_updates () =
  let s = Content_store.create () in
  List.iter
    (fun (i, d, age) -> Content_store.upsert s (person i [ ("departmentNumber", [ d ]); ("age", [ age ]) ]))
    [ (0, "10", "07"); (1, "10", "7"); (2, "20", "8"); (3, "30", "x") ];
  (* Built after the content exists. *)
  check_search "late build" s "(departmentNumber=10)" [ dept 0; dept 1 ];
  check_search "integer spellings" s "(age=7)" [ dept 0; dept 1 ];
  check_search "integer spellings" s "(age=007)" [ dept 0; dept 1 ];
  check_search "integer prefix" s "(age=0*)" [ dept 0 ];
  (* A modify that moves an indexed value, sharing the other slots. *)
  let e1 = Option.get (Content_store.find s (dn (dept 1))) in
  Content_store.upsert s (Entry.replace_values e1 "departmentNumber" [ "20" ]);
  check_search "modified" s "(departmentNumber=10)" [ dept 0 ];
  check_search "modified" s "(departmentNumber=20)" [ dept 1; dept 2 ];
  check_search "modify keeps age" s "(age=7)" [ dept 0; dept 1 ];
  (* Remove, then re-add under the same slot with another value. *)
  Content_store.remove s (dn (dept 0));
  check_search "removed" s "(departmentNumber=10)" [];
  check_search "removed" s "(age=7)" [ dept 1 ];
  Content_store.upsert s (person 0 [ ("departmentNumber", [ "30" ]); ("age", [ "70" ]) ]);
  check_search "re-added" s "(departmentNumber=10)" [];
  check_search "re-added" s "(departmentNumber=3*)" [ dept 0; dept 3 ];
  check_search "re-added" s "(age=70)" [ dept 0 ];
  (* The cheapest conjunct wins; the answer stays in slot order. *)
  check_search "conjunction" s "(&(departmentNumber=20)(age=8))" [ dept 2 ];
  check_search "disjunction" s "(|(age=70)(departmentNumber=20))" [ dept 0; dept 1; dept 2 ]

(* A conjunction reads the cheapest posting: the one-key
   [divisionNumber] posting, not the department's, which holds every
   entry of this store. *)
let test_cheapest_posting () =
  let s = Content_store.create () in
  for i = 0 to 9 do
    Content_store.upsert s
      (person i
         ([ ("departmentNumber", [ "42" ]) ] @ if i = 7 then [ ("divisionNumber", [ "3" ]) ] else []))
  done;
  let candidates f =
    Content_store.fold_candidates s (Filter.of_string_exn f) ~init:0 ~f:(fun n _ -> n + 1)
  in
  check_bool "department posting" true (candidates "(departmentNumber=42)" = Some 10);
  check_bool "division wins" true
    (candidates "(&(departmentNumber=42)(divisionNumber=3))" = Some 1);
  check_bool "either order" true
    (candidates "(&(divisionNumber=3)(departmentNumber=42))" = Some 1);
  check_bool "negation has none" true (candidates "(!(divisionNumber=3))" = None);
  check_search "priced" s "(&(departmentNumber=42)(divisionNumber=3))" [ dept 7 ]

(* A store given [indexed] keeps those postings and builds no others;
   its counts read off them. *)
let test_declared_postings () =
  let age = Ldap_compile.Attr_id.intern "age" in
  let s = Content_store.create ~indexed:[ age ] () in
  List.iter
    (fun (i, a) -> Content_store.upsert s (person i [ ("age", [ a ]); ("sn", [ "s" ^ a ]) ]))
    [ (0, "07"); (1, "7"); (2, "8") ];
  let count f = Content_store.posting_count s (Filter.of_string_exn f) in
  check_bool "integer equality is not counted" true (count "(age=7)" = None);
  check_bool "undeclared attribute is not counted" true (count "(sn=s7)" = None);
  check_search "undeclared attribute scans" s "(sn=s7)" [ dept 1 ];
  check_bool "still undeclared" true (count "(sn=s7)" = None);
  let s = Content_store.create ~indexed:[ Ldap_compile.Attr_id.intern "sn" ] () in
  List.iter
    (fun (i, v) -> Content_store.upsert s (person i [ ("sn", v) ]))
    [ (0, [ "ab"; "abc" ]); (1, [ "AB" ]); (2, [ "b" ]) ];
  let count f = Content_store.posting_count s (Filter.of_string_exn f) in
  check_bool "equality count" true (count "(sn=ab)" = Some 2);
  check_bool "prefix count sees an entry once" true (count "(sn=a*)" = Some 2);
  check_bool "substring with an any segment is not counted" true (count "(sn=a*c*)" = None)

(* Random stores, update sequences, filters and scopes.  The attribute
   pool mixes matching rules: case-ignore [departmentNumber] and its
   alias [dept], Integer [age], telephone numbers, and an attribute
   no store declares. *)
type sq_op =
  | Sq_put of int * int * (string * string list) list
  | Sq_modify of int * string * string list
  | Sq_del of int * int
  | Sq_query of Query.t

let sq_attrs = [ "departmentNumber"; "dept"; "age"; "telephoneNumber"; "mail" ]

let sq_values = function
  | "age" -> [ "7"; "07"; " 7"; "70"; "x" ]
  | "telephoneNumber" -> [ "555-1234"; "555 1234"; "5551"; "6" ]
  | _ -> [ "ab"; "AB"; "a b"; " A  B "; "abc"; "b" ]

let sq_parents = [| "ou=a,o=xyz"; "ou=b,o=xyz" |]

let sq_filter_gen =
  let open QCheck.Gen in
  let attr = oneofl sq_attrs in
  let part = oneofl [ "a"; "A"; "a "; "b"; "0"; "7"; "55"; "" ] in
  let pred =
    attr >>= fun a ->
    let value = oneofl (sq_values a) in
    let sub initial any final =
      Filter.Pred (Filter.Substrings (a, { Filter.initial; any; final }))
    in
    frequency
      [
        (4, map (fun v -> Filter.Pred (Filter.Equality (a, v))) value);
        (3, map (fun p -> sub (Some p) [] None) part);
        (1, map2 (fun p q -> sub (Some p) [ q ] None) part part);
        (1, map2 (fun p q -> sub None [ p ] (Some q)) part part);
        (1, map (fun p -> sub None [] (Some p)) part);
        (1, return (Filter.Pred (Filter.Present a)));
      ]
  in
  sized_size (0 -- 2)
    (fix (fun self n ->
         if n = 0 then pred
         else
           frequency
             [
               (3, pred);
               (2, map (fun gs -> Filter.And gs) (list_size (0 -- 3) (self (n - 1))));
               (2, map (fun gs -> Filter.Or gs) (list_size (0 -- 3) (self (n - 1))));
               (1, map (fun g -> Filter.Not g) (self (n - 1)));
             ]))

let sq_query_gen =
  let open QCheck.Gen in
  map3
    (fun base scope filter -> Query.make ~scope ~base:(dn base) filter)
    (oneofl [ "o=xyz"; "o=xyz"; "ou=a,o=xyz"; "ou=b,o=xyz"; "cn=e1,ou=a,o=xyz"; "o=abc" ])
    (frequency [ (1, return Scope.Base); (1, return Scope.One); (3, return Scope.Sub) ])
    sq_filter_gen

let sq_attrs_gen =
  let open QCheck.Gen in
  list_size (0 -- 3)
    (oneofl sq_attrs >>= fun a -> map (fun vs -> (a, vs)) (list_size (1 -- 2) (oneofl (sq_values a))))

let sq_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map3 (fun i p attrs -> Sq_put (i, p, attrs)) (0 -- 7) (0 -- 1) sq_attrs_gen);
      ( 3,
        map3
          (fun i a vs -> Sq_modify (i, a, vs))
          (0 -- 7) (oneofl sq_attrs)
          (list_size (0 -- 2) (oneofl (sq_values "departmentNumber" @ sq_values "age"))) );
      (2, map2 (fun i p -> Sq_del (i, p)) (0 -- 7) (0 -- 1));
      (3, map (fun q -> Sq_query q) sq_query_gen);
    ]

let sq_print = function
  | Sq_put (i, p, attrs) ->
      Printf.sprintf "put(e%d,%s,[%s])" i sq_parents.(p)
        (String.concat ";"
           (List.map (fun (a, vs) -> a ^ "=" ^ String.concat "|" vs) attrs))
  | Sq_modify (i, a, vs) -> Printf.sprintf "modify(e%d,%s=%s)" i a (String.concat "|" vs)
  | Sq_del (i, p) -> Printf.sprintf "del(e%d,%s)" i sq_parents.(p)
  | Sq_query q -> "query " ^ Query.to_string q

let run_search_property (declared, ops) =
  let s =
    if declared then
      Content_store.create
        ~indexed:(List.map Ldap_compile.Attr_id.intern [ "departmentnumber"; "age"; "dept" ])
        ()
    else Content_store.create ()
  in
  let entry_dn i p = dn (Printf.sprintf "cn=e%d,%s" i sq_parents.(p)) in
  let check q =
    if not (same q s) then
      QCheck.Test.fail_reportf "%s: indexed [%s] vs scan [%s]" (Query.to_string q)
        (String.concat " " (names (indexed q s)))
        (String.concat " " (names (scan q s)));
    match Content_store.posting_count s (q.Query.filter :> Filter.t) with
    | Some n ->
        let all = Query.make ~base:Dn.root (q.Query.filter :> Filter.t) in
        let m = List.length (scan all s) in
        if n <> m then
          QCheck.Test.fail_reportf "%s: posting count %d vs %d matching"
            (Filter.to_string (q.Query.filter :> Filter.t)) n m
    | None -> ()
  in
  List.iter
    (function
      | Sq_put (i, p, attrs) -> Content_store.upsert s (person ~parent:sq_parents.(p) i attrs)
      | Sq_modify (i, a, vs) ->
          Array.iter
            (fun p ->
              Option.iter
                (fun e -> Content_store.upsert s (Entry.replace_values e a vs))
                (Content_store.find s (entry_dn i p)))
            [| 0; 1 |]
      | Sq_del (i, p) -> Content_store.remove s (entry_dn i p)
      | Sq_query q -> check q)
    ops;
  (* Every query once more over the final content. *)
  List.iter (function Sq_query q -> check q | _ -> ()) ops;
  true

let search_property =
  QCheck.Test.make ~count:300 ~name:"content-store: indexed search = scan"
    (QCheck.make
       ~print:(fun (declared, ops) ->
         Printf.sprintf "declared %b: %s" declared (String.concat "; " (List.map sq_print ops)))
       QCheck.Gen.(pair bool (list_size (1 -- 40) sq_op_gen)))
    run_search_property

let suite =
  [
    Alcotest.test_case "upsert/find/remove/revive" `Quick test_upsert_find_remove;
    Alcotest.test_case "iteration order" `Quick test_iteration_order;
    Alcotest.test_case "changes_since dedups in order" `Quick test_changes_since;
    Alcotest.test_case "trim forces rescan" `Quick test_trim_and_rescan;
    Alcotest.test_case "csn stamps" `Quick test_csn_stamps;
    QCheck_alcotest.to_alcotest catch_up_test;
    Alcotest.test_case "search follows updates" `Quick test_search_follows_updates;
    Alcotest.test_case "cheapest posting" `Quick test_cheapest_posting;
    Alcotest.test_case "declared postings" `Quick test_declared_postings;
    QCheck_alcotest.to_alcotest search_property;
  ]
