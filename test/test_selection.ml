(* Tests for filter generalization, candidate statistics and the
   section 6.2 benefit/size selection: the controller under the
   paper's hit-count benefit. *)
open Ldap
module Resync = Ldap_resync
module R = Ldap_replication
module S = Ldap_selection
module A = Ldap_adaptive

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

let q ?(scope = Scope.Sub) base filter = Query.make ~scope ~base:(dn base) (f filter)

(* --- Generalization ---------------------------------------------------- *)

let prefix_rule = S.Generalize.Prefix_value { attr = "serialnumber"; keep = 2 }
let presence_rule = S.Generalize.Widen_to_presence { attr = "departmentnumber" }

(* One rule applied through [candidates]: the generalized filter, or
   [None] when the rule does not apply. *)
let generalize rule filter =
  match S.Generalize.candidates [ rule ] (Query.make ~base:(dn "o=xyz") filter) with
  | [ g ] -> Some g.Query.filter
  | [] -> None
  | _ -> Alcotest.fail "one rule yields at most one generalization"

let test_prefix_generalization () =
  (match generalize prefix_rule (f "(serialNumber=2406)") with
  | Some g -> check_bool "prefix" true (Filter.equal g (Filter.normalize (f "(serialNumber=24*)")))
  | None -> Alcotest.fail "expected generalization");
  check_bool "short value unchanged" true
    (generalize prefix_rule (f "(serialNumber=24)") = None);
  check_bool "other attr unchanged" true
    (generalize prefix_rule (f "(mail=2406)") = None)

let test_presence_generalization () =
  (match
     generalize presence_rule
       (f "(&(divisionNumber=24)(departmentNumber=2406))")
   with
  | Some g ->
      check_bool "widened" true
        (Filter.equal g (Filter.normalize (f "(&(divisionNumber=24)(departmentNumber=*))")))
  | None -> Alcotest.fail "expected generalization");
  (* Outside a conjunction the rule must not fire (it would match the
     whole directory). *)
  check_bool "bare equality untouched" true
    (generalize presence_rule (f "(departmentNumber=2406)") = None)

let test_candidates_contain_query () =
  let query = q "o=xyz" "(&(divisionNumber=24)(departmentNumber=2406))" in
  let cands =
    S.Generalize.candidates
      [ presence_rule; S.Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 } ]
      query
  in
  check_int "two candidates" 2 (List.length cands);
  List.iter
    (fun c ->
      check_bool "candidate contains query" true
        (Ldap_containment.Query_containment.contained ~query ~stored:c))
    cands

(* --- Candidate statistics ---------------------------------------------- *)

let test_candidate_stats () =
  let t = A.Interest.create () in
  let a = q "o=xyz" "(serialNumber=24*)" in
  let b = q "o=xyz" "(serialNumber=25*)" in
  A.Interest.observe t a;
  A.Interest.observe t a;
  A.Interest.observe t b;
  let ranked () =
    A.Interest.fold t ~init:[] ~f:(fun acc q s -> (q, s) :: acc)
    |> List.sort (fun (_, x) (_, y) -> compare y x)
  in
  (match ranked () with
  | [ (first, hits); (_, 1.0) ] ->
      check_bool "best first" true (Query.equal first a);
      check_bool "hits, undecayed" true (hits = 2.0)
  | _ -> Alcotest.fail "expected two candidates");
  A.Interest.reset t;
  let ranked = ranked () in
  check_int "candidates kept" 2 (List.length ranked);
  check_bool "reset" true (List.for_all (fun (_, s) -> s = 0.0) ranked)

(* --- Selector ----------------------------------------------------------- *)

let make_master_with_depts () =
  let b = Backend.create ~indexed:[ "departmentnumber"; "divisionnumber" ] () in
  must
    (Backend.add_context b
       (Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]));
  let apply op = ignore (must (Backend.apply b op)) in
  for d = 0 to 1 do
    let div_dn = dn (Printf.sprintf "ou=div-%02d,o=xyz" d) in
    apply
      (Update.Add
         (Entry.make div_dn
            [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ Printf.sprintf "div-%02d" d ]) ]));
    for k = 0 to 9 do
      let number = Printf.sprintf "%02d%02d" d k in
      apply
        (Update.Add
           (Entry.make
              (Dn.child_ava div_dn "ou" ("dept-" ^ number))
              [
                ("objectclass", [ "organizationalUnit" ]);
                ("ou", [ "dept-" ^ number ]);
                ("departmentNumber", [ number ]);
                ("divisionNumber", [ Printf.sprintf "%02d" d ]);
              ]))
    done
  done;
  (b, Resync.Master.create b)

let dept_query number =
  q "o=xyz"
    (Printf.sprintf "(&(departmentNumber=%s)(divisionNumber=%s))" number
       (String.sub number 0 2))

let paper_config ?(interval = 10) ?(budget = 5) () =
  {
    A.Controller.default_config with
    A.Controller.benefit = Hits;
    revolution_interval = interval;
    size_budget = budget;
    drift_check_interval = 0;
    mode = Fetch;
  }

let revolutions ctl = A.Controller.adaptation_count ctl + A.Controller.unchanged_checks ctl
let stored replica query = List.exists (Query.equal query) (R.Filter_replica.stored_filters replica)

let test_selector_revolution () =
  let _, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  let ctl = A.Controller.create (paper_config ()) replica in
  (* Nine hot queries for dept 0001, one for 0002 -> budget 5 admits both,
     best first. *)
  for _ = 1 to 9 do
    A.Controller.observe ctl (dept_query "0001")
  done;
  A.Controller.observe ctl (dept_query "0002");
  check_int "one revolution" 1 (revolutions ctl);
  check_bool "hot dept stored" true (stored replica (dept_query "0001"));
  (* The replica now answers the hot department locally. *)
  match R.Filter_replica.answer replica (dept_query "0001") with
  | R.Replica.Answered [ _ ] -> ()
  | _ -> Alcotest.fail "expected hit after revolution"

let test_selector_budget () =
  let _, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  (* 10 + 9 + ... + 1 = 55 queries: the revolution comes due on the last. *)
  let ctl = A.Controller.create (paper_config ~interval:55 ~budget:3 ()) replica in
  for k = 0 to 9 do
    for _ = 1 to 10 - k do
      A.Controller.observe ctl (dept_query (Printf.sprintf "00%02d" k))
    done
  done;
  check_int "one revolution" 1 (revolutions ctl);
  check_bool "budget respected" true
    (R.Filter_replica.size_entries replica <= 3);
  check_int "three filters of size one" 3
    (List.length (R.Filter_replica.stored_filters replica))

let test_selector_adapts () =
  let _, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  let ctl = A.Controller.create (paper_config ~interval:20 ~budget:1 ()) replica in
  (* Phase 1: dept 0003 is hot. *)
  for _ = 1 to 20 do
    A.Controller.observe ctl (dept_query "0003")
  done;
  check_bool "phase 1 stored" true (stored replica (dept_query "0003"));
  (* Phase 2: popularity shifts to dept 0107. *)
  for _ = 1 to 20 do
    A.Controller.observe ctl (dept_query "0107")
  done;
  check_bool "phase 2 stored" true (stored replica (dept_query "0107"));
  check_bool "old evicted" false (stored replica (dept_query "0003"))

let test_invalidate_sizes () =
  let b, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  let ctl = A.Controller.create (paper_config ~interval:2 ~budget:1 ()) replica in
  A.Controller.observe ctl (dept_query "0001");
  A.Controller.observe ctl (dept_query "0001");
  check_bool "fits at one entry" true (stored replica (dept_query "0001"));
  (* A second entry joins the department.  Every revolution re-asks the
     estimator, so the next one prices it at two entries, over budget,
     instead of keeping its day-one size. *)
  ignore
    (must
       (Backend.apply b
          (Update.Add
             (Entry.make (dn "ou=extra,ou=div-00,o=xyz")
                [
                  ("objectclass", [ "organizationalUnit" ]);
                  ("ou", [ "extra" ]);
                  ("departmentNumber", [ "0001" ]);
                  ("divisionNumber", [ "00" ]);
                ]))));
  A.Controller.observe ctl (dept_query "0001");
  A.Controller.observe ctl (dept_query "0001");
  check_bool "dropped at its new size" false (stored replica (dept_query "0001"))

let test_install_static () =
  let _, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  must (Ldap_eval.Scenario.install_static replica [ dept_query "0001"; dept_query "0102" ]);
  check_int "two installed" 2 (List.length (R.Filter_replica.stored_filters replica))

(* --- Evolution baseline -------------------------------------------------- *)

let test_evolution_reacts_immediately () =
  let _, master = make_master_with_depts () in
  let replica = Net_fixture.replica_of master in
  let rules = [ S.Generalize.Prefix_value { attr = "departmentnumber"; keep = 2 } ] in
  let config =
    { A.Evolution_baseline.rules; size_budget = 25; ageing = 0.95; swap_margin = 0.1;
      include_queries = true }
  in
  let evo = A.Evolution_baseline.create config replica in
  for _ = 1 to 5 do
    A.Evolution_baseline.observe evo (dept_query "0001")
  done;
  (* Unlike periodic revolutions, evolutions install candidates
     immediately - swaps happen within the first few queries. *)
  check_bool "swapped early" true (A.Evolution_baseline.swaps evo >= 1);
  check_bool "stored something" true
    (List.length (R.Filter_replica.stored_filters replica) >= 1)

let suite =
  [
    Alcotest.test_case "prefix generalization" `Quick test_prefix_generalization;
    Alcotest.test_case "presence generalization" `Quick test_presence_generalization;
    Alcotest.test_case "candidates contain query" `Quick test_candidates_contain_query;
    Alcotest.test_case "candidate stats" `Quick test_candidate_stats;
    Alcotest.test_case "invalidate sizes" `Quick test_invalidate_sizes;
    Alcotest.test_case "selector revolution" `Quick test_selector_revolution;
    Alcotest.test_case "selector budget" `Quick test_selector_budget;
    Alcotest.test_case "selector adapts" `Quick test_selector_adapts;
    Alcotest.test_case "install static" `Quick test_install_static;
    Alcotest.test_case "evolution reacts immediately" `Quick test_evolution_reacts_immediately;
  ]
