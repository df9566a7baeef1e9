(* Tests for Ldap.Query (regions, attribute subsets) and Ldap.Referral. *)
open Ldap

let check_bool = Alcotest.(check bool)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let q ?(scope = Scope.Sub) ?(attrs = Query.All) base filter =
  Query.make ~scope ~attrs ~base:(dn base) (f filter)

let test_in_scope () =
  let base = q ~scope:Scope.Base "ou=r,o=x" "(a=1)" in
  check_bool "base self" true (Query.in_scope base (dn "ou=r,o=x"));
  check_bool "base child" false (Query.in_scope base (dn "cn=a,ou=r,o=x"));
  let one = q ~scope:Scope.One "ou=r,o=x" "(a=1)" in
  check_bool "one child" true (Query.in_scope one (dn "cn=a,ou=r,o=x"));
  check_bool "one self" false (Query.in_scope one (dn "ou=r,o=x"));
  check_bool "one grandchild" false (Query.in_scope one (dn "cn=a,ou=s,ou=r,o=x"));
  let sub = q ~scope:Scope.Sub "ou=r,o=x" "(a=1)" in
  check_bool "sub self" true (Query.in_scope sub (dn "ou=r,o=x"));
  check_bool "sub deep" true (Query.in_scope sub (dn "cn=a,ou=s,ou=r,o=x"));
  check_bool "sub outside" false (Query.in_scope sub (dn "cn=a,o=x"))

let test_region_subset () =
  let sub base = q ~scope:Scope.Sub base "(a=1)" in
  let one base = q ~scope:Scope.One base "(a=1)" in
  let base_q base = q ~scope:Scope.Base base "(a=1)" in
  check_bool "sub in sub same base" true
    (Query.region_subset ~inner:(sub "o=x") ~outer:(sub "o=x"));
  check_bool "deeper sub in sub" true
    (Query.region_subset ~inner:(sub "ou=r,o=x") ~outer:(sub "o=x"));
  check_bool "one in sub" true (Query.region_subset ~inner:(one "o=x") ~outer:(sub "o=x"));
  check_bool "sub not in one" false
    (Query.region_subset ~inner:(sub "o=x") ~outer:(one "o=x"));
  check_bool "child base in one" true
    (Query.region_subset ~inner:(base_q "ou=r,o=x") ~outer:(one "o=x"));
  check_bool "grandchild base not in one" false
    (Query.region_subset ~inner:(base_q "cn=a,ou=r,o=x") ~outer:(one "o=x"));
  check_bool "base only covers itself" false
    (Query.region_subset ~inner:(base_q "ou=r,o=x") ~outer:(base_q "o=x"));
  check_bool "base covers itself" true
    (Query.region_subset ~inner:(base_q "o=x") ~outer:(base_q "o=x"))

let test_attrs () =
  let sel l = Query.Select l in
  check_bool "all superset" true (Query.attrs_subset ~sub:(sel [ "cn" ]) ~super:Query.All);
  check_bool "all not in select" false
    (Query.attrs_subset ~sub:Query.All ~super:(sel [ "cn" ]));
  check_bool "subset" true
    (Query.attrs_subset ~sub:(sel [ "cn" ]) ~super:(sel [ "cn"; "sn" ]));
  check_bool "not subset" false
    (Query.attrs_subset ~sub:(sel [ "mail" ]) ~super:(sel [ "cn" ]));
  (* The "*" wildcard normalizes to All. *)
  let wild = q ~attrs:(sel [ "*"; "cn" ]) "o=x" "(a=1)" in
  check_bool "star normalizes" true (wild.Query.attrs = Query.All)

let test_equality_normalized () =
  let a = q "o=x" "(&(b=2)(a=1))" in
  let b = q "o=x" "(&(a=1)(b=2))" in
  check_bool "filter order irrelevant" true (Query.equal a b);
  let c = q "O=X" "(&(a=1)(b=2))" in
  check_bool "dn case irrelevant" true (Query.equal a c);
  check_bool "different scope differs" false
    (Query.equal a (q ~scope:Scope.One "o=x" "(&(a=1)(b=2))"))

let test_referral_urls () =
  let url = Referral.make ~host:"hostB" ~dn:(dn "ou=r,o=x") () in
  (match Referral.parse url with
  | Ok { Referral.host; dn = Some d } ->
      check_bool "host" true (host = "hostB");
      check_bool "dn" true (Dn.equal d (dn "ou=r,o=x"))
  | _ -> Alcotest.fail "parse failed");
  (match Referral.parse "ldap://hostA/" with
  | Ok { Referral.host = "hostA"; dn = None } -> ()
  | _ -> Alcotest.fail "bare host failed");
  (match Referral.parse "ldap://hostC" with
  | Ok { Referral.host = "hostC"; dn = None } -> ()
  | _ -> Alcotest.fail "no-slash failed");
  check_bool "non-ldap rejected" true (Result.is_error (Referral.parse "http://x/"))

let test_scope_misc () =
  check_bool "of_string" true (Scope.of_string "subtree" = Some Scope.Sub);
  check_bool "of_int round trip" true
    (List.for_all
       (fun s -> Scope.of_int (Scope.to_int s) = Some s)
       [ Scope.Base; Scope.One; Scope.Sub ]);
  check_bool "covers" true (Scope.covers ~outer:Scope.Sub ~inner:Scope.Base);
  check_bool "not covers" false (Scope.covers ~outer:Scope.Base ~inner:Scope.One);
  (* One-level excludes the base entry, so it does not cover Base —
     the off-by-one in the paper's integer-encoded QC check. *)
  check_bool "one does not cover base" false
    (Scope.covers ~outer:Scope.One ~inner:Scope.Base);
  check_bool "one covers one" true (Scope.covers ~outer:Scope.One ~inner:Scope.One)

(* Property: region_subset agrees with enumeration over a fixed DN
   universe deep enough to exercise every scope combination. *)
let universe =
  List.map dn
    [
      "o=x"; "ou=a,o=x"; "ou=b,o=x"; "cn=1,ou=a,o=x"; "cn=2,ou=a,o=x";
      "cn=1,ou=b,o=x"; "ou=c,ou=a,o=x"; "cn=1,ou=c,ou=a,o=x"; "o=y"; "cn=1,o=y";
    ]

let region_gen =
  QCheck.Gen.(
    let base = oneofl [ "o=x"; "ou=a,o=x"; "ou=b,o=x"; "ou=c,ou=a,o=x"; "cn=1,ou=a,o=x" ] in
    let scope = oneofl [ Scope.Base; Scope.One; Scope.Sub ] in
    map2 (fun b s -> q ~scope:s b "(objectclass=*)") base scope)

let prop_region_subset_oracle =
  QCheck.Test.make ~name:"query: region_subset = enumeration" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Query.to_string a ^ " in " ^ Query.to_string b)
       (QCheck.Gen.pair region_gen region_gen))
    (fun (inner, outer) ->
      let members query = List.filter (Query.in_scope query) universe in
      (* Soundness: when region_subset claims containment, enumeration
         over any DN universe must agree.  (The converse does not hold
         on a finite universe: a sub-scope region exceeds a base-scope
         one even when no witness child exists here.) *)
      (not (Query.region_subset ~inner ~outer))
      || List.for_all
           (fun d -> List.exists (Dn.equal d) (members outer))
           (members inner))

(* Queries differing only deep in the filter, like the department
   covers, must spread over the exact-query table's buckets. *)
let test_hash_spreads_covers () =
  let base = Dn.of_string_exn "o=xyz" in
  let covers =
    List.init 400 (fun i ->
        Query.make ~base (Filter.of_string_exn (Printf.sprintf "(departmentNumber=%d)" (100 + i))))
  in
  let tbl = Query.Tbl.create 512 in
  List.iteri (fun i q -> Query.Tbl.replace tbl q i) covers;
  let stats = Query.Tbl.stats tbl in
  Alcotest.(check int) "400 bindings" 400 stats.Hashtbl.num_bindings;
  Alcotest.(check bool) "no crowded bucket" true (stats.Hashtbl.max_bucket_length <= 6);
  let q = List.hd covers in
  let respelled =
    Query.make ~base (Filter.And [ Filter.Or [ (q.Query.filter :> Filter.t) ] ])
  in
  Alcotest.(check (option int)) "equal queries find one binding" (Some 0)
    (Query.Tbl.find_opt tbl respelled)

(* A query value compiles its program and classifies its shape once
   each: a rewrite of its base or attributes keeps both, a rewrite of
   its filter (a generalization or a shard's restriction) drops both,
   and equality and hashing never look at either. *)
let test_program_kept_and_dropped () =
  let base = Dn.of_string_exn "o=xyz" in
  let q = Query.make ~base (Filter.of_string_exn "(&(sn=doe)(departmentNumber=2406))") in
  Alcotest.(check bool) "not compiled by make" true (q.Query.prog = None);
  (* An entry in every region below, so [matches] reaches the program. *)
  let entry = Entry.make (Dn.of_string_exn "cn=john doe,c=us,o=xyz") [ ("sn", [ "doe" ]) ] in
  let program (q : Query.t) =
    ignore (Query.matches q entry : bool);
    Option.get q.Query.prog
  in
  let p = program q in
  Alcotest.(check bool) "compiled once" true (program q == p);
  let fresh = Query.make ~base (Filter.of_string_exn "(&(departmentNumber=2406)(sn=doe))") in
  Alcotest.(check bool) "equal ignores the program" true (Query.equal q fresh);
  let tbl = Query.Tbl.create 4 in
  Query.Tbl.replace tbl fresh ();
  Alcotest.(check bool) "hash ignores the program" true (Query.Tbl.mem tbl q);
  let narrowed = Query.with_attrs q (Query.Select [ "cn" ]) in
  Alcotest.(check bool) "with_attrs keeps it" true (program narrowed == p);
  let moved = Query.with_base q (Dn.of_string_exn "c=us,o=xyz") in
  Alcotest.(check bool) "with_base keeps it" true (program moved == p);
  let other = Filter.normalize (Filter.of_string_exn "(sn=smith)") in
  let refiltered = Query.with_filter q other in
  Alcotest.(check bool) "with_filter drops it" true (refiltered.Query.prog = None);
  Alcotest.(check bool) "and compiles its own" true
    (program refiltered = Filter.compile (other :> Filter.t));
  Alcotest.(check bool) "not classified by make" true (q.Query.classified = None);
  let s = Query.shape q in
  Alcotest.(check bool) "classified once" true (Query.shape q == s);
  Alcotest.(check bool) "shape = of_filter, match_filter" true
    (let full = Template.of_filter q.Query.filter in
     s = (Template.shape_key full, Option.get (Template.match_filter full q.Query.filter)));
  Alcotest.(check bool) "equal ignores the shape" true (Query.equal q fresh);
  Alcotest.(check bool) "with_attrs keeps the shape" true
    (Query.shape (Query.with_attrs q (Query.Select [ "cn" ])) == s);
  Alcotest.(check bool) "with_base keeps the shape" true
    (Query.shape (Query.with_base q (Dn.of_string_exn "c=us,o=xyz")) == s);
  Alcotest.(check bool) "with_filter drops the shape" true
    ((Query.with_filter q other).Query.classified = None);
  Alcotest.(check bool) "and classifies its own" true
    (Query.shape (Query.with_filter q other) = Query.shape (Query.make ~base (other :> Filter.t)));
  let owns = Filter.normalize (Filter.of_string_exn "(serialnumber=04*)") in
  let restricted = Query.conjoin q owns (Filter.compile (owns :> Filter.t)) in
  Alcotest.(check bool) "conjoin drops the shape" true (restricted.Query.classified = None);
  Alcotest.(check bool) "and classifies its own" true
    (Query.shape restricted
    = Query.shape
        (Query.make ~base (Filter.And [ (owns :> Filter.t); (q.Query.filter :> Filter.t) ])))

let suite =
  [
    Alcotest.test_case "in_scope" `Quick test_in_scope;
    Alcotest.test_case "region subset" `Quick test_region_subset;
    Alcotest.test_case "attribute subsets" `Quick test_attrs;
    Alcotest.test_case "normalized equality" `Quick test_equality_normalized;
    Alcotest.test_case "referral urls" `Quick test_referral_urls;
    Alcotest.test_case "scope misc" `Quick test_scope_misc;
    Alcotest.test_case "hash spreads department covers" `Quick test_hash_spreads_covers;
    Alcotest.test_case "program kept by with_attrs, dropped by with_filter" `Quick
      test_program_kept_and_dropped;
    QCheck_alcotest.to_alcotest prop_region_subset_oracle;
  ]
