(* Tests for the adaptive subsystem: decayed interest tracking, delta
   transition planning/execution, the drift-triggered controller and
   the master's bounded persist-push backpressure.

   The centerpiece is a QCheck property: executing a delta transition
   plan (kept / rescoped / seeded / cold installs) leaves every target
   query's content identical to what a cold re-subscribe would hold,
   under random update interleavings and across all three history
   strategies. *)
open Ldap
module Resync = Ldap_resync
module FR = Ldap_replication.Filter_replica
module A = Ldap_adaptive
module S = Ldap_selection

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org =
  Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "100") () =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("departmentNumber", [ dept ]);
    ]

let make_backend () =
  let b = Backend.create ~indexed:[ "departmentnumber" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

let apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e

let dept_query dept =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s)" dept))

let prefix_query p =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s*)" p))

(* --- Interest ----------------------------------------------------------- *)

let score t q =
  A.Interest.fold t ~init:0.0 ~f:(fun acc c s -> if Query.equal c q then s else acc)

let test_interest_decay () =
  let t = A.Interest.create ~half_life:4 () in
  let q = dept_query "7" in
  A.Interest.observe t q;
  check_bool "fresh score is the weight" true
    (abs_float (score t q -. 1.0) < 1e-9);
  for _ = 1 to 4 do
    A.Interest.touch t
  done;
  check_bool "halved after one half-life" true
    (abs_float (score t q -. 0.5) < 1e-9);
  for _ = 1 to 4 do
    A.Interest.touch t
  done;
  check_bool "quartered after two" true
    (abs_float (score t q -. 0.25) < 1e-9)

let test_interest_ranked () =
  let t = A.Interest.create ~half_life:100 () in
  let a = dept_query "7" and b = dept_query "8" in
  A.Interest.observe t a;
  A.Interest.observe t b;
  A.Interest.observe t b;
  (* The same candidate spelled differently shares [b]'s entry. *)
  A.Interest.observe t
    (Query.make ~base:(dn "O=XYZ") (f "(departmentnumber=8)"));
  match A.Interest.ranked t with
  | [ (first, hot); (second, _) ] ->
      check_bool "hotter first" true (Query.equal first b);
      check_bool "one entry per key" true (hot > 2.5);
      check_bool "then colder" true (Query.equal second a)
  | _ -> Alcotest.fail "expected two ranked entries"

let test_interest_rejects_bad_half_life () =
  check_bool "half_life 0 rejected" true
    (try
       ignore (A.Interest.create ~half_life:0 ());
       false
     with Invalid_argument _ -> true)

(* --- Transition planning ------------------------------------------------ *)

let test_plan_classification () =
  let pref7 = prefix_query "7" and d71 = dept_query "71" in
  let d81 = dept_query "81" and pref8 = prefix_query "8" in
  let current = [ pref7; d81 ] in
  let target = [ pref7; d71; pref8 ] in
  let plan = A.Transition.plan ~current ~target in
  let step_query = function
    | A.Transition.Keep q | A.Transition.Fetch q -> q
    | A.Transition.Rescope { query; _ } | A.Transition.Seed { query; _ } -> query
  in
  let step_for q = List.find (fun s -> Query.equal (step_query s) q) plan.A.Transition.steps in
  (match step_for pref7 with
  | A.Transition.Keep _ -> ()
  | _ -> Alcotest.fail "stored query should be kept");
  (match step_for d71 with
  | A.Transition.Rescope { donor; _ } ->
      check_bool "donor is the containing prefix" true (Query.equal donor pref7)
  | _ -> Alcotest.fail "contained query should rescope");
  (match step_for pref8 with
  | A.Transition.Seed { donors; _ } ->
      check_bool "overlapping dept is a donor" true
        (List.exists (Query.equal d81) donors)
  | _ -> Alcotest.fail "overlapping query should seed");
  check_int "dropped stored query is removed" 1
    (List.length plan.A.Transition.removes);
  check_bool "removed is d81" true
    (Query.equal (List.hd plan.A.Transition.removes) d81)

let test_plan_cold_without_donors () =
  let plan =
    A.Transition.plan ~current:[] ~target:[ dept_query "71" ]
  in
  match plan.A.Transition.steps with
  | [ A.Transition.Fetch _ ] -> ()
  | _ -> Alcotest.fail "no stored set means a cold fetch"

(* --- Delta installs vs cold re-subscribe (property) --------------------- *)

let pool_depts = [| "71"; "72"; "81"; "82" |]

let pool_queries =
  [|
    dept_query "71"; dept_query "72"; dept_query "81"; dept_query "82";
    prefix_query "7"; prefix_query "8";
  |]

let queries_of_mask mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
    (Array.to_list pool_queries)

type aop = A_add of int * int | A_del of int | A_move of int * int

let aop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i d -> A_add (i, d)) (0 -- 15) (0 -- 3));
        (2, map (fun i -> A_del i) (0 -- 15));
        (3, map2 (fun i d -> A_move (i, d)) (0 -- 15) (0 -- 3));
      ])

let print_aop = function
  | A_add (i, d) -> Printf.sprintf "add(%d,%s)" i pool_depts.(d)
  | A_del i -> Printf.sprintf "del(%d)" i
  | A_move (i, d) -> Printf.sprintf "move(%d,%s)" i pool_depts.(d)

let run_aop b = function
  | A_add (i, d) ->
      ignore
        (Backend.apply b
           (Update.add (person (Printf.sprintf "p%d" i) ~dept:pool_depts.(d) ())))
  | A_del i ->
      ignore (Backend.apply b (Update.delete (dn (Printf.sprintf "cn=p%d,o=xyz" i))))
  | A_move (i, d) ->
      ignore
        (Backend.apply b
           (Update.modify
              (dn (Printf.sprintf "cn=p%d,o=xyz" i))
              [ Update.replace_values "departmentNumber" [ pool_depts.(d) ] ]))

let content_equal consumer b q =
  let expected =
    List.sort
      (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b))
      (Resync.Content.current b q)
  in
  let actual =
    List.sort
      (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b))
      (Resync.Consumer.entries consumer)
  in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal expected actual

(* Install a random current set cold, churn, transition to a random
   target set through the delta planner, churn again and poll: every
   target query's consumer must hold exactly what a fresh subscription
   would — the master's current content for the query. *)
let run_transition_sim strategy (mask1, ops1, mask2, ops2) =
  let b = make_backend () in
  let master = Resync.Master.create ~strategy b in
  let replica = FR.create master in
  List.iter
    (fun q ->
      match FR.install_filter replica q with
      | Ok () -> ()
      | Error e -> failwith e)
    (queries_of_mask mask1);
  List.iter (run_aop b) ops1;
  FR.sync replica;
  let target = queries_of_mask mask2 in
  let plan =
    A.Transition.plan ~current:(FR.stored_filters replica) ~target
  in
  let report = A.Transition.apply replica plan in
  if report.A.Transition.failed > 0 then failwith "failed installs";
  List.iter (run_aop b) ops2;
  FR.sync replica;
  List.length (FR.stored_filters replica) = List.length target
  && List.for_all
       (fun q ->
         match FR.consumer_for replica q with
         | Some c -> content_equal c b q
         | None -> false)
       target

let transition_case strategy name count =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (m1, o1, m2, o2) ->
         Printf.sprintf "cur=%x [%s] tgt=%x [%s]" m1
           (String.concat ";" (List.map print_aop o1))
           m2
           (String.concat ";" (List.map print_aop o2)))
       QCheck.Gen.(
         quad (0 -- 63)
           (list_size (0 -- 20) aop_gen)
           (0 -- 63)
           (list_size (0 -- 20) aop_gen)))
    (run_transition_sim strategy)

let prop_delta_session_history =
  transition_case Resync.Master.Session_history
    "adaptive: delta transition ≡ cold re-subscribe (session history)" 150

let prop_delta_changelog =
  transition_case Resync.Master.Changelog
    "adaptive: delta transition ≡ cold re-subscribe (changelog)" 100

let prop_delta_tombstone =
  transition_case Resync.Master.Tombstone
    "adaptive: delta transition ≡ cold re-subscribe (tombstone)" 100

(* --- Rescope attribute guard -------------------------------------------- *)

let test_rescope_narrow_donor_goes_cold () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"71" ()));
  apply b (Update.add (person "b" ~dept:"72" ()));
  let replica = FR.create (Resync.Master.create b) in
  (* The donor only replicates cn: it cannot seed a target that needs
     full entries, so the install must degrade to a cold fetch instead
     of baking missing-attribute images into retained content. *)
  let donor =
    Query.make ~base:(dn "o=xyz")
      ~attrs:(Query.Select [ "cn" ])
      (f "(departmentNumber=7*)")
  in
  (match FR.install_filter replica donor with
  | Ok () -> ()
  | Error e -> failwith e);
  let narrow = dept_query "71" in
  (match FR.install_filter_rescoped replica narrow ~donor with
  | Ok FR.Cold -> ()
  | Ok _ -> Alcotest.fail "narrow-attrs donor must not rescope"
  | Error e -> failwith e);
  match FR.consumer_for replica narrow with
  | Some c -> check_bool "cold content complete" true (content_equal c b narrow)
  | None -> Alcotest.fail "target not installed"

let test_rescope_from_covering_donor () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"71" ()));
  apply b (Update.add (person "b" ~dept:"72" ()));
  let replica = FR.create (Resync.Master.create b) in
  let donor = prefix_query "7" in
  (match FR.install_filter replica donor with
  | Ok () -> ()
  | Error e -> failwith e);
  (* Change one member after the donor's sync: the rescoped install
     resumes degraded from the donor's CSN and still converges. *)
  apply b
    (Update.modify (dn "cn=a,o=xyz") [ Update.replace_values "mail" [ "a@x" ] ]);
  let narrow = dept_query "71" in
  (match FR.install_filter_rescoped replica narrow ~donor with
  | Ok FR.Rescoped -> ()
  | Ok _ -> Alcotest.fail "covering donor should rescope"
  | Error e -> failwith e);
  match FR.consumer_for replica narrow with
  | Some c -> check_bool "rescoped content complete" true (content_equal c b narrow)
  | None -> Alcotest.fail "target not installed"

(* --- Controller edge cases ---------------------------------------------- *)

let quiet_config =
  {
    A.Controller.default_config with
    A.Controller.revolution_interval = 0;
    drift_check_interval = 0;
    min_score = 0.5;
    size_budget = 100;
  }

(* Re-selection every second observation, nothing else. *)
let every_second = { quiet_config with A.Controller.revolution_interval = 2 }

let test_controller_zero_candidates () =
  let b = make_backend () in
  let ctl =
    A.Controller.create
      { every_second with A.Controller.include_queries = false }
      (FR.create (Resync.Master.create b))
  in
  A.Controller.observe ctl (dept_query "71");
  A.Controller.observe ctl (dept_query "71");
  check_int "one re-selection, nothing to adapt to" 1 (A.Controller.unchanged_checks ctl);
  check_int "no adaptations" 0 (A.Controller.adaptation_count ctl)

let test_controller_budget_below_smallest () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"71" ()));
  apply b (Update.add (person "b" ~dept:"71" ()));
  let replica = FR.create (Resync.Master.create b) in
  let ctl =
    A.Controller.create
      { every_second with A.Controller.size_budget = 1 }
      replica
  in
  let q = dept_query "71" in
  A.Controller.observe ctl q;
  A.Controller.observe ctl q;
  (* The only viable candidate estimates at 2 entries against a budget
     of 1: selection must pick nothing and the no-op must not count as
     an adaptation. *)
  check_int "no adaptation fits" 0 (A.Controller.adaptation_count ctl);
  check_int "nothing stored" 0 (List.length (FR.stored_filters replica))

let last_target ctl =
  match List.rev (A.Controller.adaptations ctl) with
  | a :: _ -> a.A.Controller.target
  | [] -> Alcotest.fail "expected an adaptation"

let test_controller_sizes_refreshed () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"71" ()));
  let replica = FR.create (Resync.Master.create b) in
  let ctl =
    A.Controller.create
      { every_second with A.Controller.size_budget = 2 }
      replica
  in
  let q = dept_query "71" in
  A.Controller.observe ctl q;
  A.Controller.observe ctl q;
  check_bool "drifted in" true (List.exists (Query.equal q) (last_target ctl));
  (* The department grows past the budget; a re-selection asking the
     estimator fresh must now drop the filter rather than keep serving
     a stale 1-entry price. *)
  for i = 0 to 4 do
    apply b (Update.add (person (Printf.sprintf "g%d" i) ~dept:"71" ()))
  done;
  A.Controller.observe ctl q;
  A.Controller.observe ctl q;
  check_int "a shrinking adaptation" 2 (A.Controller.adaptation_count ctl);
  check_int "target emptied" 0 (List.length (last_target ctl));
  check_int "filter dropped" 0 (List.length (FR.stored_filters replica))

(* The paper rule's revolutions reset the hit counts every time, also
   when they leave the stored set as it was: "list updates" in the
   section 6.2 ablation count both kinds. *)
let test_controller_hits_reset_unchanged () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"71" ()));
  let replica = FR.create (Resync.Master.create b) in
  let ctl =
    A.Controller.create
      { every_second with A.Controller.benefit = Hits; mode = Fetch }
      replica
  in
  let q = dept_query "71" in
  A.Controller.observe ctl q;
  A.Controller.observe ctl q;
  check_int "first revolution installs" 1 (A.Controller.adaptation_count ctl);
  let revolutions () = A.Controller.adaptation_count ctl + A.Controller.unchanged_checks ctl in
  let before = revolutions () in
  A.Controller.observe ctl q;
  A.Controller.observe ctl q;
  check_int "unchanged revolution" 1 (A.Controller.unchanged_checks ctl);
  check_int "stored set kept" 1 (List.length (FR.stored_filters replica));
  check_int "counted once" (before + 1) (revolutions ());
  (* No candidate reaches min_score 0.5 again: every hit count is zero. *)
  check_bool "every hit count zero" true (A.Controller.select ctl = [])

let test_controller_drift_trigger () =
  let b = make_backend () in
  for i = 0 to 2 do
    apply b (Update.add (person (Printf.sprintf "a%d" i) ~dept:"71" ()))
  done;
  for i = 0 to 2 do
    apply b (Update.add (person (Printf.sprintf "b%d" i) ~dept:"81" ()))
  done;
  let replica = FR.create (Resync.Master.create b) in
  let ctl =
    A.Controller.create
      {
        quiet_config with
        A.Controller.drift_check_interval = 5;
        drift_ratio = 1.5;
        size_budget = 100;
      }
      replica
  in
  let q71 = dept_query "71" and q81 = dept_query "81" in
  for _ = 1 to 10 do
    A.Controller.observe ctl q71
  done;
  check_bool "first drift adaptation installed the hot dept" true
    (List.exists (Query.equal q71) (FR.stored_filters replica));
  (* The workload flips: the uncovered candidate's score must trip the
     drift test well before any periodic revolution (disabled here). *)
  for _ = 1 to 30 do
    A.Controller.observe ctl q81
  done;
  check_bool "flip admitted" true
    (List.exists (Query.equal q81) (FR.stored_filters replica));
  let triggers =
    List.map (fun a -> a.A.Controller.trigger) (A.Controller.adaptations ctl)
  in
  check_bool "ran at all" true (triggers <> []);
  check_bool "all drift-triggered" true
    (List.for_all (fun t -> t = A.Controller.Drift) triggers);
  check_int "no failed installs" 0 (A.Controller.totals ctl).A.Transition.failed

(* --- Persist backpressure ----------------------------------------------- *)

let persist_fixture ~limit =
  let b = make_backend () in
  for i = 0 to 2 do
    apply b (Update.add (person (Printf.sprintf "p%d" i) ~dept:"71" ()))
  done;
  let master = Resync.Master.create b in
  Resync.Server.set_queue_limit (Resync.Master.server master) (Some limit);
  let transport = Resync.Transport.create (Network.create ()) in
  Resync.Transport.add_master transport ~name:"m" master;
  let consumer = Resync.Consumer.create (dept_query "71") in
  (match
     Resync.Consumer.connect_persist consumer transport ~host:"m" ~from:"leaf"
   with
  | Ok _ -> ()
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  (b, master, transport, consumer)

let test_backpressure_parks_and_drains () =
  let b, master, _transport, consumer = persist_fixture ~limit:8 in
  let server = Resync.Master.server master in
  Resync.Consumer.pause_connection consumer;
  for i = 0 to 2 do
    apply b
      (Update.modify
         (dn (Printf.sprintf "cn=p%d,o=xyz" i))
         [ Update.replace_values "mail" [ Printf.sprintf "p%d@x" i ] ])
  done;
  let total, biggest = Resync.Server.push_queue_stats server in
  check_int "all parked" 3 total;
  check_int "one session holds them" 3 biggest;
  check_int "no overflow within bound" 0 (Resync.Master.push_overflows master);
  Resync.Consumer.resume_connection consumer;
  Resync.Server.flush_pushes server;
  check_int "queue drained" 0 (fst (Resync.Server.push_queue_stats server));
  check_bool "connection survived" true (Resync.Consumer.persist_alive consumer);
  check_bool "content caught up" true (content_equal consumer b (dept_query "71"))

let test_backpressure_overflow_escalates () =
  let b, master, transport, consumer = persist_fixture ~limit:2 in
  let server = Resync.Master.server master in
  Resync.Consumer.pause_connection consumer;
  for i = 0 to 5 do
    apply b
      (Update.modify (dn "cn=p0,o=xyz")
         [ Update.replace_values "mail" [ Printf.sprintf "v%d@x" i ] ])
  done;
  check_int "session retired at the bound" 1 (Resync.Master.push_overflows master);
  check_int "queue freed on retirement" 0
    (fst (Resync.Server.push_queue_stats server));
  check_bool "peak stayed O(bound)" true (Resync.Server.push_queue_peak server <= 3);
  Resync.Consumer.resume_connection consumer;
  Resync.Server.flush_pushes server;
  check_bool "consumer noticed the cut" true
    (not (Resync.Consumer.persist_alive consumer));
  (match
     Resync.Consumer.ensure_persist consumer transport ~host:"m" ~from:"leaf"
   with
  | Ok (Some outcome) ->
      check_bool "reconnect resynced degraded" true outcome.Resync.Consumer.resynced
  | Ok None -> Alcotest.fail "expected a reconnection"
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  check_bool "content converged after escalation" true
    (content_equal consumer b (dept_query "71"))

(* --- Controller decisions against their definitions --------------------- *)

(* The definitions the controller's early-exit drift test and
   budget-first selection must agree with: a fold over every viable
   candidate, and the greedy loop that proves coverage before it
   checks the budget.  Both read [interest], a tracker the test feeds
   the same credits [Controller.observe] gives its own: the query and
   its generalizations.  Scores decay lazily, one step per read, so
   the tracker is read whenever the controller reads its own: at each
   due drift test, re-selection and [select]; the scores then agree
   to the last bit. *)
let covered_by stored q =
  List.exists (fun s -> Ldap_containment.Query_containment.contained ~query:q ~stored:s) stored

let viable config interest =
  List.filter (fun (_, s) -> s >= config.A.Controller.min_score) (A.Interest.ranked interest)

let oracle_drifted config interest ctl =
  let stored = FR.stored_filters (A.Controller.replica ctl) in
  let best_uncovered, best_covered =
    List.fold_left
      (fun (bu, bc) (q, score) ->
        if covered_by stored q then (bu, max bc score) else (max bu score, bc))
      (0.0, 0.0) (viable config interest)
  in
  best_uncovered >= config.A.Controller.min_score
  && best_uncovered > config.A.Controller.drift_ratio *. best_covered

let oracle_select config interest ctl =
  let replica = A.Controller.replica ctl in
  let priced =
    List.map
      (fun (q, score) ->
        let size = max 1 (FR.estimate_size replica q) in
        (q, score /. float_of_int size, size))
      (viable config interest)
    |> List.sort (fun (qa, ra, _) (qb, rb, _) ->
           match compare rb ra with
           | 0 -> compare (Query.to_string qa) (Query.to_string qb)
           | c -> c)
  in
  let budget = config.A.Controller.size_budget in
  List.rev
    (fst
       (List.fold_left
          (fun (picked, used) (q, _, size) ->
            if covered_by picked q then (picked, used)
            else if used + size <= budget then (q :: picked, used + size)
            else (picked, used))
          ([], 0) priced))

(* Queries the stream observes, and stored filters that may or may not
   be among them ("99", "9" and the whole tree never are). *)
let decision_queries =
  [|
    dept_query "71"; dept_query "72"; dept_query "81"; dept_query "82";
    prefix_query "7"; prefix_query "8";
  |]

let stray_filters =
  [|
    dept_query "71"; prefix_query "7"; prefix_query "8"; dept_query "99";
    prefix_query "9"; Query.make ~base:(dn "o=xyz") (f "(objectclass=*)");
  |]

type dstep = Observe of int | Check

let print_dstep = function
  | Observe i -> Printf.sprintf "obs %s" (Query.to_string decision_queries.(i))
  | Check -> "check"

let decision_case_gen =
  QCheck.Gen.(
    let step = frequency [ (4, map (fun i -> Observe i) (0 -- 5)); (1, return Check) ] in
    let config =
      map3
        (fun (min_score, size_budget) (drift_ratio, every) (revolution_interval, mode) ->
          {
            A.Controller.default_config with
            A.Controller.min_score;
            size_budget;
            drift_ratio;
            drift_check_interval = every;
            revolution_interval;
            half_life = 8;
            rules = [ S.Generalize.Prefix_value { attr = "departmentNumber"; keep = 1 } ];
            mode;
          })
        (pair (oneofl [ -5.0; -1.0; 0.0; 0.5; 1.0; 2.0 ]) (oneofl [ 0; 1; 2; 3; 5; 100 ]))
        (pair (oneofl [ 0.5; 1.0; 1.5; 2.0 ]) (oneofl [ 0; 1; 3 ]))
        (pair (oneofl [ 0; 4; 7 ])
           (oneofl [ A.Controller.Delta; A.Controller.Cold_swap; A.Controller.Fetch ]))
    in
    quad config
      (list_size (0 -- 8) (pair (0 -- 15) (0 -- 3)))
      (0 -- 63)
      (list_size (0 -- 40) step))

let print_decision_case (c, people, mask, steps) =
  Printf.sprintf "min_score=%g budget=%d ratio=%g drift_every=%d rev=%d people=[%s] stored=%x [%s]"
    c.A.Controller.min_score c.A.Controller.size_budget c.A.Controller.drift_ratio
    c.A.Controller.drift_check_interval c.A.Controller.revolution_interval
    (String.concat ";" (List.map (fun (i, d) -> Printf.sprintf "%d:%s" i pool_depts.(d)) people))
    mask
    (String.concat "; " (List.map print_dstep steps))

(* The drift test shows through [observe]: when its interval comes due
   and the definition holds, the re-selection that follows has trigger
   [Drift]; otherwise any re-selection is the periodic one.  A
   re-selection that keeps the stored set is counted, not recorded. *)
let prop_controller_decisions =
  QCheck.Test.make ~name:"adaptive: drifted and select = fold-based definitions" ~count:300
    (QCheck.make ~print:print_decision_case decision_case_gen)
    (fun (config, people, mask, steps) ->
      let b = make_backend () in
      List.iter
        (fun (i, d) ->
          ignore
            (Backend.apply b
               (Update.add (person (Printf.sprintf "p%d" i) ~dept:pool_depts.(d) ()))))
        people;
      let replica = FR.create (Resync.Master.create b) in
      Array.iteri
        (fun i q ->
          if mask land (1 lsl i) <> 0 then
            match FR.install_filter replica q with Ok () -> () | Error e -> failwith e)
        stray_filters;
      let ctl = A.Controller.create config replica in
      let interest = A.Interest.create ~half_life:config.A.Controller.half_life () in
      let observed = ref 0 in
      let due every = every > 0 && !observed mod every = 0 in
      let observe q =
        List.iter (A.Interest.observe interest)
          (q :: S.Generalize.candidates config.A.Controller.rules q);
        incr observed;
        let drift = due config.A.Controller.drift_check_interval && oracle_drifted config interest ctl in
        let periodic = due config.A.Controller.revolution_interval in
        if drift || periodic then ignore (A.Interest.ranked interest);
        let count = A.Controller.adaptation_count ctl
        and unchanged = A.Controller.unchanged_checks ctl in
        A.Controller.observe ctl q;
        match A.Controller.adaptations ctl with
        | _ when A.Controller.adaptation_count ctl = count ->
            A.Controller.unchanged_checks ctl - unchanged = if drift || periodic then 1 else 0
        | adaptations ->
            let last = List.nth adaptations (List.length adaptations - 1) in
            last.A.Controller.trigger = if drift then A.Controller.Drift else A.Controller.Periodic
      in
      let agree () = List.equal Query.equal (A.Controller.select ctl) (oracle_select config interest ctl) in
      List.for_all
        (function Observe i -> observe decision_queries.(i) | Check -> agree ())
        steps
      && agree ())

let suite =
  [
    Alcotest.test_case "interest decay" `Quick test_interest_decay;
    Alcotest.test_case "interest ranked" `Quick test_interest_ranked;
    Alcotest.test_case "interest bad half-life" `Quick
      test_interest_rejects_bad_half_life;
    Alcotest.test_case "plan classification" `Quick test_plan_classification;
    Alcotest.test_case "plan cold without donors" `Quick
      test_plan_cold_without_donors;
    QCheck_alcotest.to_alcotest prop_delta_session_history;
    QCheck_alcotest.to_alcotest prop_delta_changelog;
    QCheck_alcotest.to_alcotest prop_delta_tombstone;
    Alcotest.test_case "rescope narrow donor goes cold" `Quick
      test_rescope_narrow_donor_goes_cold;
    Alcotest.test_case "rescope from covering donor" `Quick
      test_rescope_from_covering_donor;
    Alcotest.test_case "controller hits reset on unchanged revolution" `Quick
      test_controller_hits_reset_unchanged;
    Alcotest.test_case "controller zero candidates" `Quick
      test_controller_zero_candidates;
    Alcotest.test_case "controller budget too small" `Quick
      test_controller_budget_below_smallest;
    Alcotest.test_case "controller refreshes sizes" `Quick
      test_controller_sizes_refreshed;
    Alcotest.test_case "controller drift trigger" `Quick
      test_controller_drift_trigger;
    Alcotest.test_case "backpressure parks+drains" `Quick
      test_backpressure_parks_and_drains;
    Alcotest.test_case "backpressure overflow escalates" `Quick
      test_backpressure_overflow_escalates;
    QCheck_alcotest.to_alcotest prop_controller_decisions;
  ]
