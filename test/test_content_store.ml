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
  let retained () =
    List.map
      (fun r -> Csn.to_int r.Update.csn)
      (Content_store.log_since s (Content_store.log_floor s))
  in
  check_bool "empty range" true (retained () = []);
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
  (match retained () with
  | lo :: rest ->
      check_int "oldest stamp" 5 lo;
      check_int "newest stamp" 12 (List.fold_left (fun _ c -> c) lo rest)
  | [] -> Alcotest.fail "stamped spine has a range");
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

(* --- Postings against a model ------------------------------------------

   Long scripts of add, remove, modify, revive and rename over 80 DNs,
   on a store declaring two postings: [departmentNumber], whose few
   keys each hold many slots, so removals mark ids dead, compaction
   runs and a revived slot's id lands inside a vector or is un-marked
   there; and [mail], whose keys hold one slot each and share
   prefixes.  The test keeps every posting as a [Set.Make(Int)] of
   slot ids.  After each step, every key's equality candidates must be
   the model's ids in ascending order, and every key's and every
   key prefix's posting count and candidates the model's. *)

module Ids = Set.Make (Int)

type pm_op =
  | Pm_add of int * string list * int
  | Pm_remove of int
  | Pm_modify of int * string list
  | Pm_revive of int * string list
  | Pm_rename of int * int

let pm_names = 80
let pm_depts = [ "a"; "ab"; "abc"; "b"; "ba"; "c" ]
let pm_mails = List.init 40 (Printf.sprintf "m%d")

let pm_prefixes keys =
  List.sort_uniq compare
    (List.concat_map (fun k -> List.init (String.length k + 1) (String.sub k 0)) keys)

let pm_op_gen =
  let open QCheck.Gen in
  let name = 0 -- (pm_names - 1) and depts = list_size (1 -- 2) (oneofl pm_depts) in
  frequency
    [
      (5, map3 (fun i ds m -> Pm_add (i, ds, m)) name depts (0 -- 39));
      (3, map (fun i -> Pm_remove i) name);
      (2, map2 (fun i ds -> Pm_modify (i, ds)) name depts);
      (2, map2 (fun k ds -> Pm_revive (k, ds)) nat depts);
      (1, map2 (fun i j -> Pm_rename (i, j)) name name);
    ]

let pm_print = function
  | Pm_add (i, ds, m) -> Printf.sprintf "add(e%d,%s,m%d)" i (String.concat "|" ds) m
  | Pm_remove i -> Printf.sprintf "remove(e%d)" i
  | Pm_modify (i, ds) -> Printf.sprintf "modify(e%d,%s)" i (String.concat "|" ds)
  | Pm_revive (k, ds) -> Printf.sprintf "revive(#%d,%s)" k (String.concat "|" ds)
  | Pm_rename (i, j) -> Printf.sprintf "rename(e%d,e%d)" i j

let run_posting_model ops =
  let s = Content_store.create ~indexed:(List.map Ldap_compile.Attr_id.intern [ "departmentnumber"; "mail" ]) () in
  let model = Hashtbl.create 64 in
  let live = Hashtbl.create 64 in
  let post attr key id ~add =
    let ids = Option.value (Hashtbl.find_opt model (attr, key)) ~default:Ids.empty in
    Hashtbl.replace model (attr, key) ((if add then Ids.add else Ids.remove) id ids)
  in
  let id_of i = Option.get (Content_store.id_of s (dn (dept i))) in
  let note i ~add =
    let ds, m = Hashtbl.find live i in
    List.iter (fun d -> post "departmentNumber" d (id_of i) ~add) ds;
    post "mail" m (id_of i) ~add
  in
  let put i ds m =
    if Hashtbl.mem live i then note i ~add:false;
    Content_store.upsert s (person i [ ("departmentNumber", ds); ("mail", [ m ]) ]);
    Hashtbl.replace live i (ds, m);
    note i ~add:true
  in
  let remove i =
    note i ~add:false;
    Hashtbl.remove live i;
    Content_store.remove s (dn (dept i))
  in
  let id_list = Option.map (fun l -> List.rev l) in
  let candidates filter =
    id_list
      (Content_store.fold_candidates s filter ~init:[] ~f:(fun acc e ->
           Option.get (Content_store.id_of s (Entry.dn e)) :: acc))
  in
  let expect label filter ids =
    let n = Ids.cardinal ids in
    if Content_store.posting_count s filter <> Some n then
      QCheck.Test.fail_reportf "%s %s: posting count %s, model %d" label (Filter.to_string filter)
        (Option.fold ~none:"none" ~some:string_of_int (Content_store.posting_count s filter))
        n;
    if candidates filter <> Some (Ids.elements ids) then
      QCheck.Test.fail_reportf "%s %s: candidates [%s], model [%s]" label (Filter.to_string filter)
        (String.concat " " (List.map string_of_int (Option.value (candidates filter) ~default:[])))
        (String.concat " " (List.map string_of_int (Ids.elements ids)))
  in
  let check label =
    List.iter
      (fun (attr, keys) ->
        let ids key = Option.value (Hashtbl.find_opt model (attr, key)) ~default:Ids.empty in
        List.iter (fun key -> expect label (Filter.Pred (Filter.Equality (attr, key))) (ids key)) keys;
        List.iter
          (fun prefix ->
            let union =
              List.fold_left
                (fun acc key -> if String.starts_with ~prefix key then Ids.union acc (ids key) else acc)
                Ids.empty keys
            in
            expect label
              (Filter.Pred
                 (Filter.Substrings (attr, { Filter.initial = Some prefix; any = []; final = None })))
              union)
          (pm_prefixes keys))
      [ ("departmentNumber", pm_depts); ("mail", pm_mails) ]
  in
  List.iter
    (fun op ->
      (match op with
      | Pm_add (i, ds, m) -> put i ds (Printf.sprintf "m%d" m)
      | Pm_remove i -> if Hashtbl.mem live i then remove i
      | Pm_modify (i, ds) -> (
          match Hashtbl.find_opt live i with
          | Some (_, m) ->
              note i ~add:false;
              let e = Option.get (Content_store.find s (dn (dept i))) in
              Content_store.upsert s (Entry.replace_values e "departmentNumber" ds);
              Hashtbl.replace live i (ds, m);
              note i ~add:true
          | None -> ())
      | Pm_revive (k, ds) -> (
          let dead =
            List.filter
              (fun i -> (not (Hashtbl.mem live i)) && Content_store.id_of s (dn (dept i)) <> None)
              (List.init pm_names Fun.id)
          in
          match dead with
          | [] -> ()
          | _ -> put (List.nth dead (k mod List.length dead)) ds (Printf.sprintf "m%d" (k mod 40)))
      | Pm_rename (i, j) -> (
          match Hashtbl.find_opt live i with
          | Some (ds, m) when not (Hashtbl.mem live j) ->
              remove i;
              put j ds m
          | Some _ | None -> ()));
      check (pm_print op))
    ops;
  true

let posting_model_property =
  QCheck.Test.make ~count:25 ~name:"content-store: postings = Set.Make(Int) model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pm_print ops))
       QCheck.Gen.(list_size (150 -- 300) pm_op_gen))
    run_posting_model

(* --- Child links against a model --------------------------------------

   Random adds, deletes and modifyDNs of leaves under three containers
   (one nested in another).  A one-level or subtree search whose
   filter no posting answers walks the backend's child links; it must
   return exactly the model's children or descendants, in ascending
   slot order. *)

type bm_op = Bm_add of int * int | Bm_delete of int | Bm_move of int * int * int

let bm_containers = [| "ou=a,o=xyz"; "ou=b,o=xyz"; "ou=c,ou=a,o=xyz" |]
let bm_leaf i c = Printf.sprintf "cn=e%d,%s" i bm_containers.(c)

let bm_op_gen =
  let open QCheck.Gen in
  let name = 0 -- 69 and container = 0 -- 2 in
  frequency
    [
      (4, map2 (fun i c -> Bm_add (i, c)) name container);
      (2, map (fun i -> Bm_delete i) name);
      (3, map3 (fun i j c -> Bm_move (i, j, c)) name name container);
    ]

let bm_print = function
  | Bm_add (i, c) -> "add " ^ bm_leaf i c
  | Bm_delete i -> Printf.sprintf "delete e%d" i
  | Bm_move (i, j, c) -> Printf.sprintf "move e%d -> %s" i (bm_leaf j c)

let run_child_model ops =
  let b = Backend.create ~indexed:[ "cn" ] () in
  let apply op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e in
  (match Backend.add_context b (Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]) with
  | Ok () -> ()
  | Error e -> failwith e);
  (* The backend adds each container's naming value. *)
  Array.iter
    (fun c -> apply (Update.add (Entry.make (dn c) [ ("objectclass", [ "organizationalUnit" ]) ])))
    bm_containers;
  let live = Hashtbl.create 64 in
  let canon s = Dn.canonical (dn s) in
  let top = canon "o=xyz" and cans = Array.map canon bm_containers in
  (* The model's tree: each DN's canonical form and its parent's. *)
  let parent_of = Hashtbl.create 64 in
  Hashtbl.replace parent_of cans.(0) top;
  Hashtbl.replace parent_of cans.(1) top;
  Hashtbl.replace parent_of cans.(2) cans.(0);
  let leaf_names = Array.init 70 (fun i -> Array.init 3 (fun c -> canon (bm_leaf i c))) in
  let model_parents () =
    Hashtbl.fold (fun i c acc -> (leaf_names.(i).(c), cans.(c)) :: acc) live
      ((top, "") :: Hashtbl.fold (fun d p acc -> (d, p) :: acc) parent_of [])
  in
  let rec under base (d, p) =
    d = base || (p <> "" && under base (p, Option.value (Hashtbl.find_opt parent_of p) ~default:""))
  in
  let check label scope base =
    let base = canon base in
    let in_scope ((_, p) as node) = if scope = Scope.One then p = base else under base node in
    let expected = List.sort compare (List.map fst (List.filter in_scope (model_parents ()))) in
    let q = Query.make ~scope ~base:(dn base) (Filter.of_string_exn "(objectClass=*)") in
    match Backend.search b q with
    | Error _ -> QCheck.Test.fail_reportf "%s: search under %s failed" label base
    | Ok { Backend.entries; _ } ->
        let got = List.map (fun e -> Dn.canonical (Entry.dn e)) entries in
        let slots =
          List.map (fun e -> Option.get (Content_store.id_of (Backend.content_store b) (Entry.dn e))) entries
        in
        if List.sort compare got <> expected then
          QCheck.Test.fail_reportf "%s: %s under %s gave [%s], model [%s]" label
            (if scope = Scope.One then "one-level" else "subtree")
            base (String.concat " " got) (String.concat " " expected);
        if slots <> List.sort compare slots then
          QCheck.Test.fail_reportf "%s: results under %s not in slot order" label base
  in
  List.iter
    (fun op ->
      (match op with
      | Bm_add (i, c) ->
          if not (Hashtbl.mem live i) then begin
            apply (Update.add (person ~parent:bm_containers.(c) i []));
            Hashtbl.replace live i c
          end
      | Bm_delete i -> (
          match Hashtbl.find_opt live i with
          | Some c ->
              apply (Update.delete (dn (bm_leaf i c)));
              Hashtbl.remove live i
          | None -> ())
      | Bm_move (i, j, c) -> (
          match Hashtbl.find_opt live i with
          | Some from when i = j || not (Hashtbl.mem live j) ->
              if not (i = j && from = c) then begin
                let new_rdn = [ { Dn.attr = "cn"; value = Printf.sprintf "e%d" j } ] in
                apply (Update.modify_dn ~new_superior:(dn bm_containers.(c)) (dn (bm_leaf i from)) new_rdn);
                Hashtbl.remove live i;
                Hashtbl.replace live j c
              end
          | Some _ | None -> ()));
      let label = bm_print op in
      Array.iter (fun c -> check label Scope.One c) bm_containers;
      check label Scope.One "o=xyz";
      check label Scope.Sub "o=xyz";
      check label Scope.Sub "ou=a,o=xyz")
    ops;
  true

let child_model_property =
  QCheck.Test.make ~count:40 ~name:"backend: child links = model under random updates"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map bm_print ops))
       QCheck.Gen.(list_size (50 -- 200) bm_op_gen))
    run_child_model

(* The footprint estimate counts postings from their sizes — id vector
   capacity and dead ids, table rows and buckets, prefix groups — and
   must agree with a walk of the whole store within 0.5%. *)
let test_posting_footprint () =
  let s =
    Content_store.create ~indexed:(List.map Ldap_compile.Attr_id.intern [ "departmentnumber"; "mail" ]) ()
  in
  for i = 0 to 299 do
    Content_store.upsert s
      (person i [ ("departmentNumber", [ string_of_int (i mod 7) ]); ("mail", [ Printf.sprintf "m%d" i ]) ])
  done;
  for i = 0 to 299 do
    if i mod 5 = 0 then Content_store.remove s (dn (dept i))
  done;
  ignore (Content_store.posting_count s (Filter.of_string_exn "(mail=m1*)"));
  let estimate = Content_store.approx_bytes s / (Sys.word_size / 8) in
  let walked = Obj.reachable_words (Obj.repr s) in
  if abs (estimate - walked) * 200 > walked then
    Alcotest.failf "estimate %d words, walk %d" estimate walked

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
    QCheck_alcotest.to_alcotest posting_model_property;
    QCheck_alcotest.to_alcotest child_model_property;
    Alcotest.test_case "posting footprint" `Quick test_posting_footprint;
  ]
