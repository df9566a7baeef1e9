(* Tests for Ldap.Entry and Ldap.Schema. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

let john =
  Entry.make (dn "cn=John,o=xyz")
    [
      ("objectClass", [ "inetOrgPerson" ]);
      ("CN", [ "John"; "Johnny" ]);
      ("sn", [ "Doe" ]);
      ("mail", [ "j@x.com" ]);
    ]

let test_attribute_access () =
  check_bool "case-insensitive get" true (Entry.get john "cn" = [ "John"; "Johnny" ]);
  check_bool "case-insensitive name" true (Entry.get john "Cn" = [ "John"; "Johnny" ]);
  check_bool "absent" true (Entry.get john "uid" = []);
  check_bool "has_attribute" true (Entry.has_attribute john "MAIL");
  check_bool "has_value rule" true (Entry.has_value john "sn" "doe");
  check_bool "objectclasses" true (Entry.get john "objectClass" = [ "inetOrgPerson" ])

let test_merge_and_dedup () =
  let e =
    Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("CN", [ "b"; "a" ]); ("sn", [ "s" ]) ]
  in
  check_int "merged values" 2 (List.length (Entry.get e "cn"))

let test_modifications () =
  let e = Entry.add_values john "mail" [ "j2@x.com" ] in
  check_int "added" 2 (List.length (Entry.get e "mail"));
  let e = Entry.add_values e "mail" [ "J@X.COM" ] in
  check_int "duplicate under rule skipped" 2 (List.length (Entry.get e "mail"));
  (match Entry.delete_values e "mail" [ "j@x.com" ] with
  | Ok e' -> check_int "deleted one" 1 (List.length (Entry.get e' "mail"))
  | Error m -> Alcotest.fail m);
  check_bool "delete absent value errors" true
    (Result.is_error (Entry.delete_values e "mail" [ "nope@x.com" ]));
  check_bool "delete absent attr errors" true
    (Result.is_error (Entry.delete_values e "uid" []));
  (match Entry.delete_values e "mail" [] with
  | Ok e' -> check_bool "delete all" false (Entry.has_attribute e' "mail")
  | Error m -> Alcotest.fail m);
  let e = Entry.replace_values john "sn" [ "Smith" ] in
  check_bool "replaced" true (Entry.has_value e "sn" "smith");
  let e = Entry.replace_values john "sn" [] in
  check_bool "replace empty removes" false (Entry.has_attribute e "sn")

let test_select () =
  let all = Entry.select john None in
  check_bool "none keeps all" true (Entry.has_attribute all "mail");
  let some = Entry.select john (Some [ "cn"; "sn" ]) in
  check_bool "kept" true (Entry.has_attribute some "cn");
  check_bool "dropped" false (Entry.has_attribute some "mail");
  let star = Entry.select john (Some [ "*" ]) in
  check_bool "star keeps all" true (Entry.has_attribute star "mail")

let test_equal () =
  let a = Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("sn", [ "x"; "y" ]) ] in
  let b = Entry.make (dn "cn=a,o=x") [ ("sn", [ "y"; "x" ]); ("cn", [ "a" ]) ] in
  check_bool "order-insensitive equal" true (Entry.equal a b);
  let c = Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]) ] in
  check_bool "different attrs" false (Entry.equal a c)

let test_referral () =
  let r =
    Entry.make (dn "ou=r,o=x")
      [ ("objectclass", [ "referral" ]); ("ref", [ "ldap://hostB/ou=r,o=x" ]) ]
  in
  check_bool "is_referral" true (Entry.is_referral r);
  check_int "urls" 1 (List.length (Entry.referral_urls r));
  check_bool "person is not" false (Entry.is_referral john)

(* Schema -------------------------------------------------------------- *)

let test_schema_lookup () =
  check_bool "alias" true
    (Schema.canonical_attr "surname" = "sn");
  check_bool "syntax" true (Schema.syntax_of "age" = Value.Integer);
  check_bool "unknown defaults" true (Schema.syntax_of "frobnicate" = Value.Case_ignore);
  check_bool "single valued" true (Schema.is_single_valued "serialNumber");
  check_bool "multi valued" false (Schema.is_single_valued "cn")

let test_ber_sizes () =
  check_bool "entry size positive" true (Ber.entry_size john > 0);
  check_bool "selection shrinks" true
    (Ber.entry_size (Entry.select john (Some [ "cn" ])) < Ber.entry_size john);
  check_bool "dn size grows" true
    (Ber.dn_size (dn "cn=a,ou=long-name,o=xyz") > Ber.dn_size (dn "o=xyz"))

(* --- Mutated slots = rebuilt slots ----------------------------------------
   A mutator rebuilds one slot and shares the rest; the result must equal
   the entry made from scratch with the same attributes. *)

type value_op = Add_v | Replace_v | Delete_v

(* Attributes of every syntax, values with case and spacing variants so
   matching-rule canonicalization matters. *)
let op_gen =
  let open QCheck.Gen in
  triple
    (oneofl [ Add_v; Replace_v; Delete_v ])
    (oneofl [ "cn"; "age"; "telephoneNumber"; "ref"; "mail"; "objectClass" ])
    (list_size (0 -- 3) (oneofl [ "a"; "A"; "b  c"; "B C"; "07"; "7"; "+1 555"; "x" ]))

let op_name = function Add_v -> "add" | Replace_v -> "replace" | Delete_v -> "delete"

let apply_value_op e (op, attr, values) =
  match op with
  | Add_v -> Entry.add_values e attr values
  | Replace_v -> Entry.replace_values e attr values
  | Delete_v -> (
      match Entry.delete_values e attr values with Ok e' -> e' | Error _ -> e)

let prop_derived_view_equals_rebuilt =
  QCheck.Test.make ~name:"entry: derived compiled view = rebuilt view" ~count:500
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (op, a, vs) -> Printf.sprintf "%s %s [%s]" (op_name op) a (String.concat "," vs))
              ops))
       QCheck.Gen.(list_size (1 -- 8) op_gen))
    (fun ops ->
      ignore (Entry.compiled john);
      let final = List.fold_left apply_value_op john ops in
      let rebuilt = Entry.make (Entry.dn final) (Entry.attributes final) in
      Entry.compiled final = Entry.compiled rebuilt
      && Int64.equal (Entry.content_hash64 final) (Entry.content_hash64 rebuilt))

(* An attribute that is removed and then added back is listed once:
   the entry reads exactly like a fresh one with the same content. *)
let test_readd_lists_once () =
  let e =
    Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("mail", [ "m@x" ]); ("sn", [ "s" ]) ]
  in
  let deleted = match Entry.delete_values e "mail" [] with Ok e -> e | Error m -> failwith m in
  let replaced = Entry.replace_values e "mail" [] in
  List.iter
    (fun (label, gone) ->
      let back = Entry.add_values gone "mail" [ "n@x"; "o@x" ] in
      let fresh =
        Entry.make (dn "cn=a,o=x")
          [ ("cn", [ "a" ]); ("mail", [ "n@x"; "o@x" ]); ("sn", [ "s" ]) ]
      in
      check_bool (label ^ ": equal to fresh") true (Entry.equal back fresh);
      check_int (label ^ ": attributes listed") 3 (List.length (Entry.attributes back));
      check_int (label ^ ": entry size") (Ber.entry_size fresh) (Ber.entry_size back))
    [ ("delete", deleted); ("replace", replaced) ]

(* The per-entry heap footprint of a built directory, every entry's
   filter-ready form included: a search matching every entry evaluates
   them all first.  Reachable words per entry (DN and strings
   included, the list spine excluded) stay within 5% of the figure
   measured when the slot array became the entry's only attribute
   store. *)
let footprint_words_per_entry = 164.1

let test_entry_footprint () =
  let ent =
    Ldap_dirgen.Enterprise.build
      { Ldap_dirgen.Enterprise.default_config with employees = 2_000; countries = 5 }
  in
  let b = Ldap_dirgen.Enterprise.backend ent in
  let all = Query.make ~base:(dn "o=xyz") (Filter.of_string_exn "(objectClass=*)") in
  let entries = Backend.fold_entries b ~init:[] ~f:(fun acc e -> e :: acc) in
  let n = List.length entries in
  (match Backend.search b all with
  | Ok r -> check_int "search matches every entry" n (List.length r.Backend.entries)
  | Error _ -> Alcotest.fail "search failed");
  Gc.full_major ();
  let words = float (Obj.reachable_words (Obj.repr entries) - (3 * n)) /. float n in
  check_bool
    (Printf.sprintf "%.1f words per entry <= %.1f" words (footprint_words_per_entry *. 1.05))
    true
    (words <= footprint_words_per_entry *. 1.05)

let suite =
  [
    Alcotest.test_case "attribute access" `Quick test_attribute_access;
    Alcotest.test_case "merge and dedup" `Quick test_merge_and_dedup;
    Alcotest.test_case "modifications" `Quick test_modifications;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "referral entries" `Quick test_referral;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "ber sizes" `Quick test_ber_sizes;
    QCheck_alcotest.to_alcotest prop_derived_view_equals_rebuilt;
    Alcotest.test_case "re-added attribute listed once" `Quick test_readd_lists_once;
    Alcotest.test_case "entry footprint" `Quick test_entry_footprint;
  ]
