(* Tests for Ldap.Filter: parsing, printing, evaluation, normalization. *)
open Ldap

let schema = Schema.default
let f = Filter.of_string_exn
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let entry dn_s attrs = Entry.make (Dn.of_string_exn dn_s) attrs

let john =
  entry "cn=John Doe,ou=research,c=us,o=xyz"
    [
      ("cn", [ "John Doe"; "John M Doe" ]);
      ("objectclass", [ "inetOrgPerson" ]);
      ("telephoneNumber", [ "2618-2618" ]);
      ("mail", [ "john@us.xyz.com" ]);
      ("serialNumber", [ "0456" ]);
      ("departmentNumber", [ "80" ]);
      ("age", [ "42" ]);
    ]

let test_parse_basic () =
  check_string "and" "(&(sn=doe)(givenname=john))"
    (String.lowercase_ascii (Filter.to_string (f "(&(sn=Doe)(givenName=John))")));
  check_bool "or" true
    (match f "(|(cn=a)(cn=b))" with Filter.Or [ _; _ ] -> true | _ -> false);
  check_bool "not" true
    (match f "(!(cn=a))" with Filter.Not _ -> true | _ -> false);
  check_bool "present" true
    (match f "(objectclass=*)" with
    | Filter.Pred (Filter.Present _) -> true
    | _ -> false);
  check_bool "ge" true
    (match f "(age>=30)" with
    | Filter.Pred (Filter.Greater_eq (_, "30")) -> true
    | _ -> false);
  check_bool "le" true
    (match f "(age<=30)" with
    | Filter.Pred (Filter.Less_eq (_, "30")) -> true
    | _ -> false)

let test_parse_substrings () =
  (match f "(sn=smi*)" with
  | Filter.Pred (Filter.Substrings (_, { initial = Some "smi"; any = []; final = None })) -> ()
  | other -> Alcotest.failf "prefix: got %s" (Filter.to_string other));
  (match f "(sn=*ith)" with
  | Filter.Pred (Filter.Substrings (_, { initial = None; any = []; final = Some "ith" })) -> ()
  | other -> Alcotest.failf "suffix: got %s" (Filter.to_string other));
  (match f "(sn=s*m*h)" with
  | Filter.Pred
      (Filter.Substrings (_, { initial = Some "s"; any = [ "m" ]; final = Some "h" })) -> ()
  | other -> Alcotest.failf "middle: got %s" (Filter.to_string other));
  match f "(sn=*mi*)" with
  | Filter.Pred (Filter.Substrings (_, { initial = None; any = [ "mi" ]; final = None })) -> ()
  | other -> Alcotest.failf "any-only: got %s" (Filter.to_string other)

let test_parse_escapes () =
  match f "(cn=a\\2ab)" with
  | Filter.Pred (Filter.Equality (_, "a*b")) -> ()
  | other -> Alcotest.failf "escape: got %s" (Filter.to_string other)

let test_parse_errors () =
  let bad s = match Filter.of_string s with Error _ -> true | Ok _ -> false in
  check_bool "unbalanced" true (bad "(cn=a");
  check_bool "trailing" true (bad "(cn=a)x");
  check_bool "empty and" true (bad "(&)");
  check_bool "no operator" true (bad "(cn)");
  check_bool "empty attr" true (bad "(=v)")

let test_eval_equality () =
  check_bool "eq hit" true (Filter.matches schema (f "(serialNumber=0456)") john);
  check_bool "eq case-insensitive" true (Filter.matches schema (f "(cn=john doe)") john);
  check_bool "eq multi-valued" true (Filter.matches schema (f "(cn=John M Doe)") john);
  check_bool "eq miss" false (Filter.matches schema (f "(serialNumber=9999)") john);
  check_bool "absent attr" false (Filter.matches schema (f "(uid=jd)") john)

let test_eval_ranges () =
  check_bool "ge hit" true (Filter.matches schema (f "(age>=40)") john);
  check_bool "ge miss" false (Filter.matches schema (f "(age>=43)") john);
  check_bool "le hit" true (Filter.matches schema (f "(age<=42)") john);
  check_bool "integer order not lexicographic" true
    (Filter.matches schema (f "(age>=9)") john)

let test_eval_substrings () =
  check_bool "prefix" true (Filter.matches schema (f "(mail=john@*)") john);
  check_bool "suffix" true (Filter.matches schema (f "(mail=*xyz.com)") john);
  check_bool "middle" true (Filter.matches schema (f "(mail=*@us*)") john);
  check_bool "full pattern" true (Filter.matches schema (f "(mail=j*us*com)") john);
  check_bool "miss" false (Filter.matches schema (f "(mail=jane@*)") john);
  check_bool "ordered anys" false (Filter.matches schema (f "(mail=*xyz*us*)") john)

let test_eval_boolean () =
  check_bool "and" true
    (Filter.matches schema (f "(&(serialNumber=0456)(departmentNumber=80))") john);
  check_bool "and miss" false
    (Filter.matches schema (f "(&(serialNumber=0456)(departmentNumber=81))") john);
  check_bool "or" true
    (Filter.matches schema (f "(|(serialNumber=9)(departmentNumber=80))") john);
  check_bool "not" true (Filter.matches schema (f "(!(serialNumber=9))") john);
  check_bool "not absent is true" true (Filter.matches schema (f "(!(uid=x))") john);
  check_bool "tt matches" true (Filter.matches schema Filter.tt john)

let test_normalize () =
  check_bool "flatten and" true
    (Filter.equal (f "(&(a=1)(&(b=2)(c=3)))") (f "(&(a=1)(b=2)(c=3))"));
  check_bool "order-insensitive" true (Filter.equal (f "(&(a=1)(b=2))") (f "(&(b=2)(a=1))"));
  check_bool "single operand unwrap" true (Filter.equal (f "(&(a=1))") (f "(a=1)"));
  check_bool "dedup" true (Filter.equal (f "(|(a=1)(a=1))") (f "(a=1)"));
  check_bool "attr case" true (Filter.equal (f "(CN=x)") (f "(cn=x)"))

let test_attributes () =
  Alcotest.(check (list string)) "attributes" [ "a"; "b"; "c" ]
    (Filter.attributes (f "(&(a=1)(|(b=2)(c=3))(a=4))"))

(* Property: parse/print round trip on generated filters. *)

let filter_gen =
  let open QCheck.Gen in
  let attr = oneofl [ "cn"; "sn"; "mail"; "age"; "ou" ] in
  let value = string_size ~gen:(char_range 'a' 'z') (1 -- 5) in
  let pred =
    oneof
      [
        map2 (fun a v -> Filter.Equality (a, v)) attr value;
        map2 (fun a v -> Filter.Greater_eq (a, v)) attr value;
        map2 (fun a v -> Filter.Less_eq (a, v)) attr value;
        map (fun a -> Filter.Present a) attr;
        map2
          (fun a v -> Filter.Substrings (a, { Filter.initial = Some v; any = []; final = None }))
          attr value;
      ]
  in
  let rec tree depth =
    if depth = 0 then map (fun p -> Filter.Pred p) pred
    else
      frequency
        [
          (3, map (fun p -> Filter.Pred p) pred);
          (1, map (fun g -> Filter.Not g) (tree (depth - 1)));
          (1, map (fun gs -> Filter.And gs) (list_size (1 -- 3) (tree (depth - 1))));
          (1, map (fun gs -> Filter.Or gs) (list_size (1 -- 3) (tree (depth - 1))));
        ]
  in
  tree 3

let filter_arb = QCheck.make ~print:Filter.to_string filter_gen

let test_escape_round_trip () =
  (* Values containing filter metacharacters survive print/parse. *)
  List.iter
    (fun v ->
      let fl = Filter.Pred (Filter.Equality ("cn", v)) in
      let back = Filter.of_string_exn (Filter.to_string fl) in
      check_bool (Printf.sprintf "round trip %S" v) true (Filter.equal fl back))
    [ "a*b"; "(paren)"; "back\\slash"; "nul\000byte"; "star*"; "**" ]

let prop_escape_round_trip =
  QCheck.Test.make ~name:"filter: arbitrary equality values round-trip" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 12))
    (fun v ->
      QCheck.assume (v <> "");
      let fl = Filter.Pred (Filter.Equality ("cn", v)) in
      match Filter.of_string (Filter.to_string fl) with
      | Ok back -> Filter.equal fl back
      | Error _ -> false)

let prop_roundtrip =
  QCheck.Test.make ~name:"filter: print/parse round-trip" ~count:500 filter_arb
    (fun fl -> Filter.equal fl (Filter.of_string_exn (Filter.to_string fl)))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"filter: normalize idempotent" ~count:500 filter_arb (fun fl ->
      let n = Filter.normalize fl in
      Filter.equal n (Filter.normalize n))

let prop_normalize_preserves_semantics =
  QCheck.Test.make ~name:"filter: normalize preserves evaluation" ~count:300
    filter_arb (fun fl ->
      let n = Filter.normalize fl in
      Filter.matches schema fl john = Filter.matches schema n john)

(* Comparing and hashing skip renormalizing filters that are already
   canonical; either way they must agree with the normalized forms. *)
let prop_compare_hash_normalized =
  let rec upcase = function
    | Filter.Pred (Filter.Equality (a, v)) -> Filter.Pred (Filter.Equality (String.uppercase_ascii a, v))
    | Filter.Pred (Filter.Present a) -> Filter.Pred (Filter.Present (String.uppercase_ascii a))
    | Filter.Pred _ as p -> p
    | Filter.Not g -> Filter.Not (upcase g)
    | Filter.And gs -> Filter.And (List.map upcase gs)
    | Filter.Or gs -> Filter.Or (List.map upcase gs)
  in
  QCheck.Test.make ~name:"filter: compare/hash agree with normalized forms" ~count:500
    (QCheck.pair filter_arb filter_arb) (fun (a, b) ->
      List.for_all
        (fun (x, y) ->
          let nx = Filter.normalize x and ny = Filter.normalize y in
          Filter.compare x y = Filter.compare nx ny
          && Filter.hash x = Filter.hash nx
          && ((not (Filter.equal x y)) || Filter.hash x = Filter.hash y))
        [ (a, b); (a, upcase a); (upcase a, Filter.normalize a); (b, upcase b) ])

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "parse substrings" `Quick test_parse_substrings;
    Alcotest.test_case "parse escapes" `Quick test_parse_escapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "eval equality" `Quick test_eval_equality;
    Alcotest.test_case "eval ranges" `Quick test_eval_ranges;
    Alcotest.test_case "eval substrings" `Quick test_eval_substrings;
    Alcotest.test_case "eval boolean" `Quick test_eval_boolean;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "positive/size/attrs" `Quick test_attributes;
    Alcotest.test_case "escape round trip" `Quick test_escape_round_trip;
    QCheck_alcotest.to_alcotest prop_escape_round_trip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_normalize_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_compare_hash_normalized;
  ]
