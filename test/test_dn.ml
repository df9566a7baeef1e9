(* Unit and property tests for Ldap.Dn. *)
open Ldap

let dn s = Dn.of_string_exn s

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_parse_print () =
  let round s = Dn.to_string (dn s) in
  check_string "simple" "cn=john doe,ou=research,o=xyz" (round "cn=John Doe, ou=Research, o=XYZ" |> String.lowercase_ascii);
  check_string "root" "" (round "");
  check_string "escaped comma" "cn=doe\\, john,o=xyz" (String.lowercase_ascii (round "cn=Doe\\, John,o=xyz"))

let test_equality () =
  check_bool "case-insensitive" true (Dn.equal (dn "CN=John,O=XYZ") (dn "cn=john,o=xyz"));
  check_bool "space squashing" true (Dn.equal (dn "cn=John  Doe,o=xyz") (dn "cn=John Doe, o=xyz"));
  check_bool "different" false (Dn.equal (dn "cn=a,o=xyz") (dn "cn=b,o=xyz"));
  check_bool "multi-ava order" true (Dn.equal (dn "cn=X+sn=Y,o=xyz") (dn "sn=Y+cn=X,o=xyz"))

let test_depth_parent () =
  check_int "depth" 3 (Dn.depth (dn "cn=a,ou=b,o=c"));
  check_int "root depth" 0 (Dn.depth Dn.root);
  check_bool "parent" true
    (Dn.equal (Option.get (Dn.parent (dn "cn=a,ou=b,o=c"))) (dn "ou=b,o=c"));
  check_bool "root has no parent" true (Dn.parent Dn.root = None)

let test_ancestor () =
  let a = dn "o=xyz" and b = dn "cn=a,ou=research,o=xyz" in
  check_bool "ancestor" true (Dn.ancestor_of a b);
  check_bool "not descendant" false (Dn.ancestor_of b a);
  check_bool "self non-strict" true (Dn.ancestor_of a a);
  check_bool "self strict" false (Dn.ancestor_of ~strict:true a a);
  check_bool "root ancestor of all" true (Dn.ancestor_of Dn.root b);
  check_bool "sibling" false (Dn.ancestor_of (dn "c=us,o=xyz") (dn "c=in,o=xyz"));
  (* RDN-boundary trap: o=xyzzy is not under o=xyz. *)
  check_bool "no string-prefix confusion" false (Dn.ancestor_of (dn "o=xyz") (dn "cn=a,o=xyzzy"))

let test_parent_of () =
  check_bool "parent_of" true (Dn.parent_of (dn "ou=b,o=c") (dn "cn=a,ou=b,o=c"));
  check_bool "grandparent not parent" false (Dn.parent_of (dn "o=c") (dn "cn=a,ou=b,o=c"))

let test_child () =
  let base = dn "o=xyz" in
  let c = Dn.child_ava base "cn" "John" in
  check_bool "child round-trip" true (Dn.equal c (dn "cn=John,o=xyz"));
  check_bool "parent of child" true (Dn.parent_of base c)

let test_canonical_key () =
  check_string "canonical equal" (Dn.canonical (dn "CN=A, O=B")) (Dn.canonical (dn "cn=a,o=b"))

let test_hex_escapes () =
  (* \41 is 'A'. *)
  let d = Dn.of_string_exn "cn=\\41lice,o=x" in
  check_bool "hex decoded" true (Dn.equal d (Dn.of_string_exn "cn=Alice,o=x"));
  (* Special bytes survive a print/parse cycle. *)
  let tricky = Dn.child_ava Dn.root "cn" "a,b+c=d" in
  check_bool "special chars round trip" true
    (Dn.equal tricky (Dn.of_string_exn (Dn.to_string tricky)))

let test_invalid () =
  let bad s = match Dn.of_string s with Error _ -> true | Ok _ -> false in
  check_bool "missing value sep" true (bad "cnjohn,o=xyz");
  check_bool "empty rdn" true (bad "cn=a,,o=xyz");
  check_bool "dangling escape" true (bad "cn=a\\")

(* Property tests ----------------------------------------------------- *)

let rdn_gen =
  QCheck.Gen.(
    let attr = oneofl [ "cn"; "ou"; "o"; "uid"; "dc" ] in
    let value =
      map (fun (c, s) -> Printf.sprintf "%c%s" c s)
        (pair (char_range 'a' 'z') (string_size ~gen:(char_range 'a' 'z') (0 -- 6)))
    in
    map2 (fun a v -> { Dn.attr = a; value = v }) attr value)

(* A DN from its RDNs, leaf-most first. *)
let of_rdns rdns = List.fold_right (fun r dn -> Dn.child dn [ r ]) rdns Dn.root

let rec rdns dn =
  match (Dn.rdn dn, Dn.parent dn) with Some r, Some p -> r :: rdns p | _ -> []

let dn_gen = QCheck.Gen.(map of_rdns (list_size (0 -- 6) rdn_gen))

let dn_arb = QCheck.make ~print:Dn.to_string dn_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"dn: to_string/of_string round-trip" ~count:500 dn_arb
    (fun d -> Dn.equal d (Dn.of_string_exn (Dn.to_string d)))

let prop_parent_ancestor =
  QCheck.Test.make ~name:"dn: parent is strict ancestor" ~count:500 dn_arb (fun d ->
      match Dn.parent d with
      | None -> Dn.is_root d
      | Some p -> Dn.ancestor_of ~strict:true p d && Dn.parent_of p d)

let prop_ancestor_transitive =
  QCheck.Test.make ~name:"dn: ancestor transitive via parents" ~count:500 dn_arb
    (fun d ->
      let rec all_ancestors acc dn =
        match Dn.parent dn with None -> acc | Some p -> all_ancestors (p :: acc) p
      in
      List.for_all (fun a -> Dn.ancestor_of a d) (all_ancestors [] d))

let prop_canonical_consistent =
  QCheck.Test.make ~name:"dn: equal iff canonical equal" ~count:500
    (QCheck.pair dn_arb dn_arb) (fun (a, b) ->
      Dn.equal a b = String.equal (Dn.canonical a) (Dn.canonical b))

(* [ancestor_of] compares canonical strings in place; the oracle
   compares RDN by RDN.  Values with commas, plus signs and case
   variants make boundaries inside the canonical string ambiguous. *)
let prop_ancestor_oracle =
  let tricky =
    QCheck.Gen.(
      map2
        (fun a v -> { Dn.attr = a; value = v })
        (oneofl [ "cn"; "ou" ])
        (oneofl [ "a"; "A"; "a,ou=b"; "b"; "a+cn=b"; "b,cn=a" ]))
  in
  let gen = QCheck.Gen.(list_size (0 -- 4) tricky) in
  QCheck.Test.make ~name:"dn: ancestor_of = per-RDN oracle" ~count:1000
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (xs, ys) ->
      let a = of_rdns xs in
      let b = of_rdns (ys @ xs) in
      let c = of_rdns ys in
      let oracle x y =
        let key r = Dn.canonical (Dn.child Dn.root r) in
        let rx = List.map key (rdns x) in
        let ry = List.map key (rdns y) in
        let dx = List.length rx and dy = List.length ry in
        dx <= dy && List.filteri (fun i _ -> i >= dy - dx) ry = rx
      in
      List.for_all
        (fun (x, y) -> Dn.ancestor_of x y = oracle x y)
        [ (a, b); (c, b); (a, c); (c, a); (b, a) ])

(* A DN derived by [Dn.child] from its parent, and each of its
   [Dn.parent]s, is the DN built from the same parts at once
   ([Dn.of_string], through [of_rdns]): same canonical string, depth
   and ancestry against every suffix.  Values carry escaped bytes and
   inner runs of spaces, attribute names mixed case, and RDNs up to
   three values; no value starts or ends with a space, which a parse
   would trim. *)
let prop_child_parent_from_parts =
  let open QCheck.Gen in
  let inner = oneofl [ 'a'; 'B'; 'z'; ' '; ','; '+'; '='; '\\'; '#'; '"'; ';'; '<' ] in
  let value =
    map2
      (fun c s -> Printf.sprintf "%c%s" c s)
      (oneofl [ 'a'; 'Q'; '#'; ','; '=' ])
      (map (fun s -> if String.ends_with ~suffix:" " s then s ^ "x" else s) (string_size ~gen:inner (0 -- 5)))
  in
  let ava = map2 (fun attr value -> { Dn.attr; value }) (oneofl [ "cn"; "CN"; "Ou"; "uid"; "SN"; "dc" ]) value in
  let rdn = list_size (1 -- 3) ava in
  QCheck.Test.make ~count:500 ~name:"dn: child and parent = built from parts"
    (QCheck.make
       ~print:(fun rdns -> String.concat "," (List.map Dn.rdn_to_string rdns))
       (list_size (1 -- 5) rdn))
    (fun rdns ->
      let built rdns = dn (String.concat "," (List.map Dn.rdn_to_string rdns)) in
      let suffixes = List.init (List.length rdns + 1) (fun k -> built (List.filteri (fun i _ -> i >= k) rdns)) in
      let same d b =
        String.equal (Dn.canonical d) (Dn.canonical b)
        && Dn.depth d = Dn.depth b
        && List.for_all
             (fun s ->
               Dn.ancestor_of s d = Dn.ancestor_of s b
               && Dn.ancestor_of ~strict:true s d = Dn.ancestor_of ~strict:true s b
               && Dn.ancestor_of d s = Dn.ancestor_of b s)
             suffixes
      in
      let rec up d = function
        | [] -> Dn.is_root d && Dn.parent d = None
        | _ :: rest as parts -> same d (built parts) && up (Option.get (Dn.parent d)) rest
      in
      up (List.fold_right (fun r d -> Dn.child d r) rdns Dn.root) rdns)

let suite =
  [
    Alcotest.test_case "parse/print" `Quick test_parse_print;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "depth/parent" `Quick test_depth_parent;
    Alcotest.test_case "ancestor" `Quick test_ancestor;
    Alcotest.test_case "parent_of" `Quick test_parent_of;
    Alcotest.test_case "child" `Quick test_child;
    Alcotest.test_case "canonical" `Quick test_canonical_key;
    Alcotest.test_case "hex escapes" `Quick test_hex_escapes;
    Alcotest.test_case "invalid inputs" `Quick test_invalid;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_parent_ancestor;
    QCheck_alcotest.to_alcotest prop_ancestor_transitive;
    QCheck_alcotest.to_alcotest prop_canonical_consistent;
    QCheck_alcotest.to_alcotest prop_ancestor_oracle;
    QCheck_alcotest.to_alcotest prop_child_parent_from_parts;
  ]
