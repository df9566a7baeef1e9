(* Tests for the containment engine: Propositions 1-3, templates, QC,
   and the template-bucketed index — including a brute-force oracle. *)
open Ldap
open Ldap_containment

let f = Filter.of_string_exn
let check_bool = Alcotest.(check bool)

let contained a b = Filter_containment.contained (f a) (f b)

let test_reflexive () =
  List.iter
    (fun s -> check_bool s true (contained s s))
    [ "(cn=a)"; "(&(sn=doe)(givenname=john))"; "(age>=3)"; "(sn=smi*)"; "(objectclass=*)" ]

let test_equality_cases () =
  check_bool "eq in eq (same)" true (contained "(cn=a)" "(cn=a)");
  check_bool "eq in eq (diff)" false (contained "(cn=a)" "(cn=b)");
  check_bool "eq in present" true (contained "(cn=a)" "(cn=*)");
  check_bool "present in eq" false (contained "(cn=*)" "(cn=a)");
  check_bool "different attr" false (contained "(cn=a)" "(sn=a)")

let test_range_cases () =
  (* Paper: (age=X) is answered by (age>=Y) if Y <= X. *)
  check_bool "eq in ge (inside)" true (contained "(age=30)" "(age>=20)");
  check_bool "eq in ge (boundary)" true (contained "(age=20)" "(age>=20)");
  check_bool "eq in ge (outside)" false (contained "(age=10)" "(age>=20)");
  check_bool "eq in le" true (contained "(age=10)" "(age<=20)");
  check_bool "ge in ge" true (contained "(age>=30)" "(age>=20)");
  check_bool "ge in ge (reverse)" false (contained "(age>=20)" "(age>=30)");
  check_bool "le in le" true (contained "(age<=10)" "(age<=20)");
  check_bool "integer compare, not lexicographic" true (contained "(age=9)" "(age>=9)")

let test_substring_cases () =
  check_bool "eq in prefix" true (contained "(sn=smith)" "(sn=smi*)");
  check_bool "eq not in prefix" false (contained "(sn=doe)" "(sn=smi*)");
  check_bool "prefix in shorter prefix" true (contained "(sn=smi*)" "(sn=sm*)");
  check_bool "prefix not in longer prefix" false (contained "(sn=sm*)" "(sn=smi*)");
  check_bool "prefix in present" true (contained "(sn=smi*)" "(sn=*)");
  check_bool "eq in contains" true (contained "(mail=john@xyz.com)" "(mail=*xyz*)");
  check_bool "serialnumber pattern" true (contained "(serialnumber=2406)" "(serialnumber=24*)")

let test_boolean_cases () =
  check_bool "and in part" true (contained "(&(sn=doe)(givenname=john))" "(sn=doe)");
  check_bool "part not in and" false (contained "(sn=doe)" "(&(sn=doe)(givenname=john))");
  check_bool "or in bigger or" true (contained "(cn=a)" "(|(cn=a)(cn=b))");
  check_bool "or branches" true (contained "(|(cn=a)(cn=b))" "(|(cn=a)(cn=b)(cn=c))");
  check_bool "or not contained" false (contained "(|(cn=a)(cn=z))" "(|(cn=a)(cn=b))");
  check_bool "and of ors" true
    (contained "(&(dept=2406)(div=sw))" "(&(dept=24*)(div=sw))");
  check_bool "conjunct strengthens" true
    (contained "(&(age>=30)(age<=40))" "(age>=20)")

let test_negation_cases () =
  check_bool "not in not (flip)" true (contained "(!(age>=20))" "(!(age>=30))");
  check_bool "not in not (wrong flip)" false (contained "(!(age>=30))" "(!(age>=20))");
  (* age is single-valued: (age=1) has no value equal to 2. *)
  check_bool "eq in not-eq different (single-valued)" true
    (contained "(age=1)" "(!(age=2))");
  check_bool "eq in not-eq same" false (contained "(age=1)" "(!(age=1))");
  (* cn is multi-valued: an entry {cn=a, cn=b} satisfies (cn=a) but not
     (!(cn=b)), so containment must NOT hold. *)
  check_bool "eq in not-eq different (multi-valued)" false
    (contained "(cn=a)" "(!(cn=b))");
  (* (age=30) ⊆ (!(age>=40)): age is single-valued so 30 < 40 suffices. *)
  check_bool "single-valued eq in not-ge" true (contained "(age=30)" "(!(age>=40))");
  (* cn is multi-valued: an entry {cn=a, cn=z} satisfies (cn=a) but not
     (!(cn>=x)), so containment must NOT hold. *)
  check_bool "multi-valued eq not in not-ge" false (contained "(cn=a)" "(!(cn>=x))")

let test_unsatisfiable_left () =
  (* An unsatisfiable F1 is contained in everything (single-valued age). *)
  check_bool "empty range" true (contained "(&(age>=30)(age<=20))" "(cn=whatever)");
  check_bool "empty eq pair" true (contained "(&(age=1)(age=2))" "(cn=whatever)");
  (* Multi-valued attribute: (cn=a)&(cn=b) is satisfiable, so not contained. *)
  check_bool "multi-valued not empty" false (contained "(&(cn=a)(cn=b))" "(cn=zzz)")

let test_template_extraction () =
  let t = Template.of_filter (f "(&(sn=doe)(givenname=john))") in
  Alcotest.(check int) "holes" 2 (Array.length (Template.hole_attrs t));
  let t2 = Template.of_filter (f "(&(sn=smith)(givenname=jane))") in
  check_bool "same shape" true (Template.shape_key t = Template.shape_key t2);
  let t3 = Template.of_filter (f "(sn=doe)") in
  check_bool "different shape" false (Template.shape_key t = Template.shape_key t3)

let test_template_declared () =
  let t = Template.of_string_exn "(&(cn=_)(ou=research))" in
  Alcotest.(check int) "one hole" 1 (Array.length (Template.hole_attrs t));
  (match Template.match_filter t (f "(&(cn=john)(ou=research))") with
  | Some [| v |] -> Alcotest.(check string) "bound value" "john" v
  | _ -> Alcotest.fail "expected match");
  check_bool "const mismatch" true
    (Template.match_filter t (f "(&(cn=john)(ou=sales))") = None);
  (* Constants compare under the matching rule. *)
  check_bool "const case-insensitive" true
    (Template.match_filter t (f "(&(cn=john)(ou=Research))") <> None)

(* A filter built by filling a template's hole is an instance of it,
   binding the hole to the value. *)
let test_template_instantiate () =
  let t = Template.of_string_exn "(serialnumber=_)" in
  Alcotest.(check (option (array string))) "instance" (Some [| "0456" |])
    (Template.match_filter t (f "(serialnumber=0456)"));
  Alcotest.(check (option (array string))) "other attribute" None
    (Template.match_filter t (f "(sn=0456)"))

let test_cross_template_compile () =
  let left = Template.of_string_exn "(age=_)" in
  let right = Template.of_string_exn "(age>=_)" in
  match Symbolic.compile ~left ~right with
  | Some cond ->
      check_bool "30 >= 20" true
        (Symbolic.eval cond ~left:[| "30" |] ~right:[| "20" |]);
      check_bool "10 >= 20 fails" false
        (Symbolic.eval cond ~left:[| "10" |] ~right:[| "20" |])
  | None -> Alcotest.fail "expected compilation"

let test_cross_template_prefix () =
  let left = Template.of_string_exn "(serialnumber=_)" in
  let right = Template.of_string_exn "(serialnumber=_*)" in
  match Symbolic.compile ~left ~right with
  | Some cond ->
      check_bool "prefix hit" true
        (Symbolic.eval cond ~left:[| "2406" |] ~right:[| "24" |]);
      check_bool "prefix miss" false
        (Symbolic.eval cond ~left:[| "2506" |] ~right:[| "24" |])
  | None -> Alcotest.fail "expected compilation"

let test_template_pruning () =
  (* The paper: a query of template (&(sn=_)(ou=_)) can not answer (sn=_). *)
  let left = Template.of_string_exn "(sn=_)" in
  let right = Template.of_string_exn "(&(sn=_)(ou=_))" in
  (match Symbolic.compile ~left ~right with
  | Some Symbolic.Never -> ()
  | Some other -> Alcotest.failf "expected Never, got %s" (Symbolic.to_string other)
  | None -> Alcotest.fail "expected compilation");
  (* The other direction is conditional: equal sn values.  Hole values
     are extracted with [match_filter] so the (normalization-defined)
     hole order is respected. *)
  let left_values =
    Option.get (Template.match_filter right (f "(&(sn=doe)(ou=x))"))
  in
  let right_values = Option.get (Template.match_filter left (f "(sn=doe)")) in
  match Symbolic.compile ~left:right ~right:left with
  | Some (Symbolic.Cnf _ as cond) ->
      check_bool "conditional containment holds" true
        (Symbolic.eval cond ~left:left_values ~right:right_values);
      check_bool "conditional containment fails on mismatch" false
        (Symbolic.eval cond ~left:left_values ~right:[| "smith" |])
  | Some other -> Alcotest.failf "expected Cnf, got %s" (Symbolic.to_string other)
  | None -> Alcotest.fail "expected compilation"

(* --- Query containment (QC) ----------------------------------------- *)

let q ?(scope = Scope.Sub) ?(attrs = Query.All) base filter =
  Query.make ~scope ~attrs ~base:(Dn.of_string_exn base) (f filter)

let qc query stored = Query_containment.contained ~query ~stored

let test_qc_regions () =
  check_bool "same base sub" true (qc (q "o=xyz" "(cn=a)") (q "o=xyz" "(cn=*)"));
  check_bool "deeper base" true (qc (q "ou=r,o=xyz" "(cn=a)") (q "o=xyz" "(cn=*)"));
  check_bool "shallower base fails" false (qc (q "o=xyz" "(cn=a)") (q "ou=r,o=xyz" "(cn=*)"));
  check_bool "sibling fails" false (qc (q "c=us,o=xyz" "(cn=a)") (q "c=in,o=xyz" "(cn=*)"));
  check_bool "scope: base in sub" true
    (qc (q ~scope:Scope.Base "ou=r,o=xyz" "(cn=a)") (q "o=xyz" "(cn=*)"));
  check_bool "scope: sub not in one" false
    (qc (q ~scope:Scope.Sub "o=xyz" "(cn=a)") (q ~scope:Scope.One "o=xyz" "(cn=*)"));
  check_bool "scope: one in sub" true
    (qc (q ~scope:Scope.One "o=xyz" "(cn=a)") (q ~scope:Scope.Sub "o=xyz" "(cn=*)"));
  check_bool "scope: base child of one-level" true
    (qc (q ~scope:Scope.Base "ou=r,o=xyz" "(cn=a)") (q ~scope:Scope.One "o=xyz" "(cn=*)"))

let test_qc_attrs () =
  let sel l = Query.Select l in
  check_bool "subset attrs" true
    (qc (q ~attrs:(sel [ "cn" ]) "o=xyz" "(cn=a)") (q ~attrs:(sel [ "cn"; "sn" ]) "o=xyz" "(cn=*)"));
  check_bool "superset attrs fails" false
    (qc (q ~attrs:(sel [ "cn"; "mail" ]) "o=xyz" "(cn=a)") (q ~attrs:(sel [ "cn" ]) "o=xyz" "(cn=*)"));
  check_bool "all contains select" true
    (qc (q ~attrs:(sel [ "cn" ]) "o=xyz" "(cn=a)") (q ~attrs:Query.All "o=xyz" "(cn=*)"));
  check_bool "select does not contain all" false
    (qc (q ~attrs:Query.All "o=xyz" "(cn=a)") (q ~attrs:(sel [ "cn" ]) "o=xyz" "(cn=*)"))

(* --- Containment index ----------------------------------------------- *)

let test_index_basic () =
  let idx = Containment_index.create () in
  Containment_index.add idx (q "o=xyz" "(serialnumber=24*)") "block24";
  Containment_index.add idx (q "o=xyz" "(&(dept=2406)(div=sw))") "d2406";
  Alcotest.(check int) "length" 2 (Containment_index.length idx);
  (match Containment_index.find_container idx (q "o=xyz" "(serialnumber=2417)") with
  | Some (_, p) -> Alcotest.(check string) "payload" "block24" p
  | None -> Alcotest.fail "expected hit");
  check_bool "miss" true
    (Containment_index.find_container idx (q "o=xyz" "(serialnumber=2517)") = None);
  (match Containment_index.find_container idx (q "o=xyz" "(&(dept=2406)(div=sw))") with
  | Some (_, p) -> Alcotest.(check string) "same-template hit" "d2406" p
  | None -> Alcotest.fail "expected same-template hit");
  check_bool "region respected" true
    (Containment_index.find_container idx (q "o=abc" "(serialnumber=2417)") = None)

let test_index_remove_replace () =
  let idx = Containment_index.create () in
  let query = q "o=xyz" "(serialnumber=24*)" in
  Containment_index.add idx query 1;
  Containment_index.add idx query 2;
  Alcotest.(check int) "replace keeps one" 1 (Containment_index.length idx);
  (match Containment_index.find_container idx (q "o=xyz" "(serialnumber=2400)") with
  | Some (_, p) -> Alcotest.(check int) "replaced payload" 2 p
  | None -> Alcotest.fail "expected hit");
  Containment_index.remove idx query;
  Alcotest.(check int) "removed" 0 (Containment_index.length idx)

let test_index_comparisons_counted () =
  (* Range filters compile to Empty_range conditions on both hole
     sides, which have no keyed pruning plan: a miss still scans the
     bucket and the counter sees every stored check. *)
  let idx = Containment_index.create () in
  for i = 0 to 9 do
    Containment_index.add idx (q "o=xyz" (Printf.sprintf "(dept>=%d)" (10 * i))) i
  done;
  let before = Containment_index.comparisons idx in
  (* "!" sorts below every stored bound, so no stored query contains
     the probe and the scan visits the whole bucket. *)
  ignore (Containment_index.find_container idx (q "o=xyz" "(dept>=!)"));
  check_bool "comparisons counted" true (Containment_index.comparisons idx - before >= 10)

let test_index_pruning () =
  (* Same-template equality misses are answered from the value columns
     without touching any stored query... *)
  let idx = Containment_index.create () in
  for i = 0 to 99 do
    Containment_index.add idx (q "o=xyz" (Printf.sprintf "(dept=%d)" i)) i
  done;
  let since =
    let last = ref (Containment_index.comparisons idx) in
    fun () ->
      let now = Containment_index.comparisons idx in
      let d = now - !last in
      last := now;
      d
  in
  check_bool "miss" true (Containment_index.find_container idx (q "o=xyz" "(dept=999)") = None);
  Alcotest.(check int) "eq miss checks nothing" 0 (since ());
  (* ...and a hit checks only the column's worth of candidates. *)
  (match Containment_index.find_container idx (q "o=xyz" "(dept=42)") with
  | Some (_, p) -> Alcotest.(check int) "hit payload" 42 p
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "eq hit checks one candidate" 1 (since ());
  (* Pruning must survive removals and re-adds. *)
  Containment_index.remove idx (q "o=xyz" "(dept=42)");
  check_bool "removed not found" true
    (Containment_index.find_container idx (q "o=xyz" "(dept=42)") = None);
  Containment_index.add idx (q "o=xyz" "(dept=42)") 4242;
  (match Containment_index.find_container idx (q "o=xyz" "(dept=42)") with
  | Some (_, p) -> Alcotest.(check int) "re-added payload" 4242 p
  | None -> Alcotest.fail "expected hit after re-add")

let test_index_integer_spellings () =
  (* The column key must agree with Value.equal: "07" and "7" are the
     same Integer value even though they normalize differently. *)
  let idx = Containment_index.create () in
  Containment_index.add idx (q "o=xyz" "(age=7)") "seven";
  match Containment_index.find_container idx (q "o=xyz" "(age=07)") with
  | Some (_, p) -> Alcotest.(check string) "zero-padded spelling" "seven" p
  | None -> Alcotest.fail "expected (age=07) to be contained in (age=7)"

(* --- Template registry ------------------------------------------------ *)

let test_registry () =
  let r = Template_registry.create () in
  (match
     Template_registry.declare_strings r
       [ "(serialnumber=_)"; "(&(departmentnumber=_)(divisionnumber=_))" ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "declared" 2 (List.length (Template_registry.templates r));
  (* Duplicate declarations are ignored. *)
  Template_registry.declare r (Template.of_string_exn "(serialnumber=_)");
  Alcotest.(check int) "no dup" 2 (List.length (Template_registry.templates r));
  check_bool "classified" true
    (Template_registry.classify r (q "o=xyz" "(serialnumber=0456)") <> None);
  check_bool "admitted" true
    (Template_registry.admit r (q "o=xyz" "(&(departmentnumber=2406)(divisionnumber=24))"));
  check_bool "rejected" false (Template_registry.admit r (q "o=xyz" "(sn=doe)"));
  Alcotest.(check int) "unclassified" 1 (Template_registry.unclassified r);
  let stats =
    Option.get (Template_registry.stats_of r (Template.of_string_exn "(serialnumber=_)"))
  in
  Alcotest.(check int) "observed" 1 stats.Template_registry.observed;
  check_bool "bad declaration fails" true
    (Result.is_error (Template_registry.declare_strings r [ "(((" ]))

(* --- Oracle property: containment soundness --------------------------
   Verify [contained f1 f2 = true] implies no entry (from an exhaustive
   small domain) satisfies f1 but not f2. *)

let small_domain_entries =
  (* Entries over attrs {age (single), cn (multi)} with small values. *)
  let ages = [ None; Some "1"; Some "2"; Some "3" ] in
  let cn_sets = [ []; [ "a" ]; [ "b" ]; [ "a"; "b" ]; [ "ab" ] ] in
  List.concat_map
    (fun age ->
      List.map
        (fun cns ->
          let attrs =
            [ ("objectclass", [ "person" ]) ]
            @ (match age with Some a -> [ ("age", [ a ]) ] | None -> [])
            @ match cns with [] -> [] | _ -> [ ("cn", cns) ]
          in
          Entry.make (Dn.of_string_exn "cn=test,o=xyz") attrs)
        cn_sets)
    ages

let small_filter_gen =
  let open QCheck.Gen in
  let pred =
    oneof
      [
        map2 (fun a v -> Filter.Equality (a, v))
          (oneofl [ "age"; "cn" ]) (oneofl [ "1"; "2"; "3"; "a"; "b"; "ab" ]);
        map (fun v -> Filter.Greater_eq ("age", v)) (oneofl [ "1"; "2"; "3" ]);
        map (fun v -> Filter.Less_eq ("age", v)) (oneofl [ "1"; "2"; "3" ]);
        map (fun a -> Filter.Present a) (oneofl [ "age"; "cn" ]);
        map
          (fun v -> Filter.Substrings ("cn", { Filter.initial = Some v; any = []; final = None }))
          (oneofl [ "a"; "b" ]);
      ]
  in
  let rec tree depth =
    if depth = 0 then map (fun p -> Filter.Pred p) pred
    else
      frequency
        [
          (3, map (fun p -> Filter.Pred p) pred);
          (1, map (fun g -> Filter.Not g) (tree (depth - 1)));
          (2, map (fun gs -> Filter.And gs) (list_size (2 -- 3) (tree (depth - 1))));
          (2, map (fun gs -> Filter.Or gs) (list_size (2 -- 3) (tree (depth - 1))));
        ]
  in
  tree 2

let prop_containment_sound =
  QCheck.Test.make ~name:"containment: sound vs small-domain oracle" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Filter.to_string a ^ " in " ^ Filter.to_string b)
       (QCheck.Gen.pair small_filter_gen small_filter_gen))
    (fun (f1, f2) ->
      if Filter_containment.contained f1 f2 then
        List.for_all
          (fun e -> (not (Filter.matches f1 e)) || Filter.matches f2 e)
          small_domain_entries
      else true)

let prop_same_shape_agrees =
  QCheck.Test.make ~name:"containment: same-shape path sound vs oracle" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Filter.to_string a ^ " in " ^ Filter.to_string b)
       (QCheck.Gen.pair small_filter_gen small_filter_gen))
    (fun (f1, f2) ->
      (not (Filter_containment.contained f1 f2))
      || List.for_all
           (fun e -> (not (Filter.matches f1 e)) || Filter.matches f2 e)
           small_domain_entries)

let test_numeric_prefix_ranges () =
  (* A substring prefix does not bound Integer-syntax values: "-2*"
     matches -25 < -9, so treating age=-2* as inside age>=-9 would let
     a replica answer the range query from content missing -25. *)
  check_bool "negative prefix not in ge" false (contained "(age=-2*)" "(age>=-9)");
  check_bool "prefix not in le (10 matches 1*)" false (contained "(age=1*)" "(age<=2)");
  check_bool "prefix not in ge (positive)" false (contained "(age=1*)" "(age>=1)");
  (* Lexically ordered syntaxes keep the prefix-window reasoning. *)
  check_bool "lexical prefix in ge" true (contained "(sn=ab*)" "(sn>=ab)");
  check_bool "lexical prefix in le" true (contained "(sn=ab*)" "(sn<=ac)");
  check_bool "lexical prefix not in smaller le" false (contained "(sn=ab*)" "(sn<=ab)")

(* --- Exact-query table -------------------------------------------------- *)

type index_op = Put of Query.t * int | Drop of Query.t

let query_gen =
  let open QCheck.Gen in
  map4
    (fun base scope filter attrs ->
      Query.make ~base:(Dn.of_string_exn base) ~scope ~attrs filter)
    (oneofl [ "o=xyz"; "ou=a,o=xyz" ])
    (oneofl [ Scope.Sub; Scope.One ])
    small_filter_gen
    (oneofl [ Query.All; Query.Select [ "cn" ] ])

let index_op_gen pool =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun q i -> Put (q, i)) (oneofl pool) small_nat);
      (3, map (fun q -> Drop q) (oneofl pool));
    ]

(* [find] and [mem] against a scan of what is stored; probes also use
   an un-normalized spelling of each query, which must hash and compare
   as the query itself. *)
let prop_exact_table_agrees =
  QCheck.Test.make ~name:"containment index: find/mem = fold scan" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (2 -- 6) query_gen >>= fun pool ->
         pair (return pool) (list_size (1 -- 20) (index_op_gen pool))))
    (fun (pool, ops) ->
      let idx = Containment_index.create () in
      List.iter
        (function
          | Put (q, i) -> Containment_index.add idx q i
          | Drop q -> Containment_index.remove idx q)
        ops;
      let scan q =
        Containment_index.fold idx ~init:None ~f:(fun acc q' i ->
            if Query.equal q q' then Some i else acc)
      in
      Containment_index.length idx
      = Containment_index.fold idx ~init:0 ~f:(fun n _ _ -> n + 1)
      && List.for_all
           (fun q ->
             let respelled = { q with Query.filter = Filter.And [ q.Query.filter ] } in
             List.for_all
               (fun probe ->
                 Containment_index.find idx probe = scan q
                 && Containment_index.mem idx probe = Option.is_some (scan q))
               [ q; respelled ])
           pool)

let suite =
  [
    Alcotest.test_case "reflexive" `Quick test_reflexive;
    Alcotest.test_case "numeric prefix ranges" `Quick test_numeric_prefix_ranges;
    Alcotest.test_case "equality cases" `Quick test_equality_cases;
    Alcotest.test_case "range cases" `Quick test_range_cases;
    Alcotest.test_case "substring cases" `Quick test_substring_cases;
    Alcotest.test_case "boolean cases" `Quick test_boolean_cases;
    Alcotest.test_case "negation cases" `Quick test_negation_cases;
    Alcotest.test_case "unsatisfiable left" `Quick test_unsatisfiable_left;
    Alcotest.test_case "template extraction" `Quick test_template_extraction;
    Alcotest.test_case "template declared" `Quick test_template_declared;
    Alcotest.test_case "template instantiate" `Quick test_template_instantiate;
    Alcotest.test_case "cross-template compile" `Quick test_cross_template_compile;
    Alcotest.test_case "cross-template prefix" `Quick test_cross_template_prefix;
    Alcotest.test_case "template pruning (Never)" `Quick test_template_pruning;
    Alcotest.test_case "QC regions" `Quick test_qc_regions;
    Alcotest.test_case "QC attributes" `Quick test_qc_attrs;
    Alcotest.test_case "index basic" `Quick test_index_basic;
    Alcotest.test_case "index remove/replace" `Quick test_index_remove_replace;
    Alcotest.test_case "index comparisons" `Quick test_index_comparisons_counted;
    Alcotest.test_case "index pruning" `Quick test_index_pruning;
    Alcotest.test_case "index integer spellings" `Quick test_index_integer_spellings;
    Alcotest.test_case "template registry" `Quick test_registry;
    QCheck_alcotest.to_alcotest prop_containment_sound;
    QCheck_alcotest.to_alcotest prop_same_shape_agrees;
    QCheck_alcotest.to_alcotest prop_exact_table_agrees;
  ]
