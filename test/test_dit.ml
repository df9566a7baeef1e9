(* The directory tree and attribute index kept inside Ldap.Backend,
   checked through Backend.apply/search/fold_entries: child links
   answer scopes and the leaf and parent checks, postings answer
   indexed equality and prefix lookups. *)
open Ldap

let schema = Schema.default
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

let entry dn_s attrs = Entry.make (dn dn_s) attrs
let org = entry "o=xyz" [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let node name parent =
  entry (Printf.sprintf "ou=%s,%s" name parent)
    [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ name ]) ]

let person name serial =
  entry (Printf.sprintf "cn=%s,o=xyz" name)
    [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ name ]);
      ("serialNumber", [ serial ]) ]

let must_apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e
let rdn s = match Dn.rdn_of_string s with Ok r -> r | Error e -> failwith e

let backend indexed =
  let b = Backend.create ~indexed schema in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

let small () =
  let b = backend [ "ou" ] in
  List.iter
    (fun e -> must_apply b (Update.add e))
    [ node "a" "o=xyz"; node "b" "o=xyz"; node "a1" "ou=a,o=xyz"; node "a2" "ou=a,o=xyz" ];
  b

let canon e = Dn.canonical (Entry.dn e)

let search b ?(scope = Scope.Sub) base filter =
  Backend.search b (Query.make ~scope ~base:(dn base) (Filter.of_string_exn filter))

let count b ?scope base filter =
  match search b ?scope base filter with
  | Ok { Backend.entries; _ } -> List.length entries
  | Error _ -> -1

let refused b op = Result.is_error (Backend.apply b op)

let test_structure () =
  let b = small () in
  check_int "size" 5 (Backend.total_entries b);
  check_bool "find root" true (Backend.find b (dn "o=xyz") <> None);
  check_bool "find deep" true (Backend.find b (dn "ou=a1,ou=a,o=xyz") <> None);
  check_bool "missing" true (Backend.find b (dn "ou=zz,o=xyz") = None);
  let children base = count b ~scope:Scope.One base "(objectclass=*)" in
  check_int "children of root" 2 (children "o=xyz");
  check_int "children of a" 2 (children "ou=a,o=xyz");
  check_int "children of leaf" 0 (children "ou=b,o=xyz");
  check_bool "contains namespace" true
    (Backend.context_for b (dn "cn=any,ou=a,o=xyz") = Some (dn "o=xyz"));
  check_bool "outside namespace" true (Backend.context_for b (dn "o=abc") = None)

let test_add_errors () =
  let b = small () in
  check_bool "duplicate" true (refused b (Update.add (node "a" "o=xyz")));
  check_bool "orphan" true (refused b (Update.add (node "x" "ou=zz,o=xyz")));
  check_bool "out of context" true
    (refused b (Update.add (entry "ou=x,o=abc" [ ("objectclass", [ "top" ]) ])));
  check_int "size unchanged" 5 (Backend.total_entries b)

let test_delete_semantics () =
  let b = small () in
  check_bool "non-leaf refused" true (refused b (Update.delete (dn "ou=a,o=xyz")));
  check_bool "suffix refused" true (refused b (Update.delete (dn "o=xyz")));
  must_apply b (Update.delete (dn "ou=a1,ou=a,o=xyz"));
  must_apply b (Update.delete (dn "ou=a2,ou=a,o=xyz"));
  check_int "after deletes" 3 (Backend.total_entries b);
  (* Now a is a leaf. *)
  must_apply b (Update.delete (dn "ou=a,o=xyz"));
  check_int "chain deleted" 2 (Backend.total_entries b)

let test_replace_keeps_subtree () =
  let b = small () in
  must_apply b
    (Update.modify (dn "ou=a,o=xyz") [ Update.replace_values "description" [ "new" ] ]);
  check_bool "replaced" true
    (Entry.has_value (Option.get (Backend.find b (dn "ou=a,o=xyz"))) "description" "new");
  check_bool "children kept" true (Backend.find b (dn "ou=a1,ou=a,o=xyz") <> None);
  check_int "subtree kept" 3 (count b "ou=a,o=xyz" "(objectclass=*)");
  check_bool "replace missing errors" true
    (refused b (Update.modify (dn "ou=zz,o=xyz") [ Update.replace_values "description" [ "x" ] ]))

let test_fold_order () =
  let b = small () in
  (* Slot order stops matching RDN order: c comes after a and b, a
     re-added a1 keeps its slot, a moved a2 takes a new one. *)
  must_apply b (Update.add (node "c" "o=xyz"));
  must_apply b (Update.add (node "c1" "ou=c,o=xyz"));
  must_apply b (Update.delete (dn "ou=a1,ou=a,o=xyz"));
  must_apply b (Update.add (node "a1" "ou=a,o=xyz"));
  must_apply b
    (Update.modify_dn ~new_superior:(dn "ou=c,o=xyz") (dn "ou=a2,ou=a,o=xyz") (rdn "ou=a2"));
  let order = List.rev (Backend.fold_entries b ~init:[] ~f:(fun acc e -> canon e :: acc)) in
  Alcotest.(check (list string))
    "parent first, slot order"
    [ "o=xyz"; "ou=a,o=xyz"; "ou=b,o=xyz"; "ou=a1,ou=a,o=xyz"; "ou=c,o=xyz";
      "ou=c1,ou=c,o=xyz"; "ou=a2,ou=c,o=xyz" ]
    order;
  (* Searches answer in the same order, walked or indexed. *)
  let result_order filter =
    match search b "o=xyz" filter with
    | Ok { Backend.entries; _ } -> List.map canon entries
    | Error _ -> []
  in
  Alcotest.(check (list string)) "walked search order" order (result_order "(objectclass=*)");
  Alcotest.(check (list string)) "indexed search order"
    (List.filter (String.starts_with ~prefix:"ou=a") order)
    (result_order "(ou=a*)");
  (* Subtree and one-level scopes only visit the subtree. *)
  check_int "subtree" 3 (count b "ou=c,o=xyz" "(objectclass=*)");
  check_int "one level" 1 (count b ~scope:Scope.One "ou=a,o=xyz" "(objectclass=*)");
  check_int "missing subtree" (-1) (count b "ou=zz,o=xyz" "(objectclass=*)")

(* --- Index -------------------------------------------------------------- *)

let serials () =
  let b = backend [ "serialnumber" ] in
  List.iter
    (fun p -> must_apply b (Update.add p))
    [ person "a" "2406"; person "b" "2407"; person "c" "2506" ];
  b

let test_index_eq_prefix () =
  let b = serials () in
  let n filter = count b "o=xyz" filter in
  check_int "eq lookup" 1 (n "(serialNumber=2406)");
  check_int "eq miss" 0 (n "(serialNumber=9999)");
  check_int "prefix 24" 2 (n "(serialNumber=24*)");
  check_int "prefix 2" 3 (n "(serialNumber=2*)");
  check_int "prefix miss" 0 (n "(serialNumber=9*)");
  check_int "conjunction" 1 (n "(&(serialNumber=24*)(cn=b))");
  (* No string-prefix confusion across boundary values: 240 is both an
     exact value and a prefix of 2406 and 2407. *)
  must_apply b (Update.add (person "d" "240"));
  check_int "prefix 240 exact+longer" 3 (n "(serialNumber=240*)");
  check_int "eq 240 exact" 1 (n "(serialNumber=240)")

let test_index_remove () =
  let b = backend [ "serialnumber" ] in
  must_apply b (Update.add (person "a" "2406"));
  must_apply b (Update.delete (dn "cn=a,o=xyz"));
  check_int "removed" 0 (count b "o=xyz" "(serialNumber=2406)");
  check_int "prefix removed" 0 (count b "o=xyz" "(serialNumber=2*)");
  (* A re-add under the same DN is found again. *)
  must_apply b (Update.add (person "a" "2406"));
  check_int "re-added" 1 (count b "o=xyz" "(serialNumber=2406)")

let test_index_normalized () =
  let b = backend [ "cn" ] in
  must_apply b (Update.add (person "John Doe" "1"));
  check_int "case-insensitive" 1 (count b "o=xyz" "(cn=JOHN DOE)");
  check_int "case-insensitive prefix" 1 (count b "o=xyz" "(cn=john*)")

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "add errors" `Quick test_add_errors;
    Alcotest.test_case "delete semantics" `Quick test_delete_semantics;
    Alcotest.test_case "replace keeps subtree" `Quick test_replace_keeps_subtree;
    Alcotest.test_case "fold order" `Quick test_fold_order;
    Alcotest.test_case "index eq/prefix" `Quick test_index_eq_prefix;
    Alcotest.test_case "index remove" `Quick test_index_remove;
    Alcotest.test_case "index normalized" `Quick test_index_normalized;
  ]
