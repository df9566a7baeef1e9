(* Tests for Ldap.Value matching rules. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_case_ignore () =
  check_bool "case" true (Value.equal Value.Case_ignore "John Doe" "john doe");
  check_bool "spaces squashed" true (Value.equal Value.Case_ignore "  a   b " "a b");
  check_bool "different" false (Value.equal Value.Case_ignore "a" "b");
  check_int "order" (-1) (compare (Value.compare Value.Case_ignore "abc" "abd") 0)

let test_case_exact () =
  check_bool "case matters" false (Value.equal Value.Case_exact "Abc" "abc");
  check_bool "same" true (Value.equal Value.Case_exact "Abc" "Abc");
  check_bool "spaces squashed" true (Value.equal Value.Case_exact "a  b" "a b")

let test_integer () =
  check_bool "numeric equal" true (Value.equal Value.Integer "007" "7");
  check_bool "numeric order" true (Value.compare Value.Integer "9" "10" < 0);
  check_bool "lexicographic would fail" true (Value.compare Value.Integer "100" "99" > 0);
  check_bool "negative" true (Value.compare Value.Integer "-5" "3" < 0);
  (* Non-numeric values order after all integers. *)
  check_bool "garbage after ints" true (Value.compare Value.Integer "5" "abc" < 0)

let test_telephone () =
  check_bool "separators ignored" true
    (Value.equal Value.Telephone "2618-2618" "26 18 26 18");
  check_bool "different" false (Value.equal Value.Telephone "2618" "2619")

let test_substring_match () =
  let m ?initial ?(any = []) ?final v =
    Value.matches_substring Value.Case_ignore ~initial ~any ~final v
  in
  check_bool "prefix" true (m ~initial:"smi" "Smith");
  check_bool "prefix miss" false (m ~initial:"smi" "Doe");
  check_bool "suffix" true (m ~final:"ith" "smith");
  check_bool "any ordered" true (m ~any:[ "m"; "t" ] "smith");
  check_bool "any wrong order" false (m ~any:[ "t"; "m" ] "smith");
  check_bool "no overlap" false (m ~any:[ "mit"; "ith" ] "smith");
  check_bool "full spec" true (m ~initial:"s" ~any:[ "i" ] ~final:"h" "smith");
  check_bool "final too long" false (m ~final:"smithx" "smith");
  check_bool "initial and final overlap rules" true (m ~initial:"ab" ~final:"ba" "abba")

let test_successor_of_prefix () =
  check_string "simple" "smj" (Value.successor_of_prefix "smi");
  check_string "digits" "25" (Value.successor_of_prefix "24");
  check_bool "covers all prefixed" true
    (String.compare "smizzz" (Value.successor_of_prefix "smi") < 0);
  check_bool "empty rejected" true
    (try ignore (Value.successor_of_prefix "") ; false with Invalid_argument _ -> true);
  (* Trailing 0xff bytes are dropped before incrementing. *)
  check_string "high byte" "b" (Value.successor_of_prefix "a\xff\xff")

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"value: normalize idempotent across syntaxes" ~count:500
    QCheck.(pair (oneofl Value.[ Case_ignore; Case_exact; Integer; Telephone ]) string)
    (fun (syntax, s) ->
      let n = Value.normalize syntax s in
      String.equal n (Value.normalize syntax n))

let prop_compare_total_order =
  QCheck.Test.make ~name:"value: compare is antisymmetric" ~count:500
    QCheck.(triple (oneofl Value.[ Case_ignore; Integer ]) string string)
    (fun (syntax, a, b) ->
      let ab = Value.compare syntax a b and ba = Value.compare syntax b a in
      (ab = 0 && ba = 0) || (ab > 0 && ba < 0) || (ab < 0 && ba > 0))

let prop_successor_bound =
  QCheck.Test.make ~name:"value: successor bounds every extension" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.return 4)) small_string)
    (fun (prefix, ext) ->
      QCheck.assume (String.for_all (fun c -> c <> '\xff') prefix && prefix <> "");
      let succ = Value.successor_of_prefix prefix in
      String.compare (prefix ^ ext) succ < 0 && String.compare prefix succ < 0)

(* [normalize] returns an already-normal value itself; whether or not
   it copies, it must agree with the plain definitions of the matching
   rules. *)
let prop_normalize_reference =
  QCheck.Test.make ~name:"value: normalize = reference definitions" ~count:1000
    QCheck.(
      pair
        (oneofl Value.[ Case_ignore; Case_exact; Telephone ])
        (string_gen_of_size Gen.(0 -- 8) (Gen.oneofl [ 'a'; 'B'; ' '; '-'; '7' ])))
    (fun (syntax, s) ->
      let squash v = String.concat " " (List.filter (( <> ) "") (String.split_on_char ' ' v)) in
      let strip v = String.concat "" (String.split_on_char '-' (String.concat "" (String.split_on_char ' ' v))) in
      let want =
        match syntax with
        | Value.Case_ignore -> String.lowercase_ascii (squash s)
        | Value.Case_exact -> squash s
        | Value.Telephone -> String.lowercase_ascii (strip s)
        | Value.Integer -> String.trim s
      in
      String.equal (Value.normalize syntax s) want
      && String.equal (Value.lowercase s) (String.lowercase_ascii s))

let suite =
  [
    Alcotest.test_case "case ignore" `Quick test_case_ignore;
    Alcotest.test_case "case exact" `Quick test_case_exact;
    Alcotest.test_case "integer" `Quick test_integer;
    Alcotest.test_case "telephone" `Quick test_telephone;
    Alcotest.test_case "substring match" `Quick test_substring_match;
    Alcotest.test_case "successor of prefix" `Quick test_successor_of_prefix;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_compare_total_order;
    QCheck_alcotest.to_alcotest prop_successor_bound;
    QCheck_alcotest.to_alcotest prop_normalize_reference;
  ]
