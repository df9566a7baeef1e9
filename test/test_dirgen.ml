(* Tests for the synthetic substrate: PRNG, Zipf, enterprise directory
   and workload generation, and the update stream. *)
open Ldap
module D = Ldap_dirgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- PRNG -------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = D.Prng.create 1 and b = D.Prng.create 1 in
  for _ = 1 to 100 do
    check_bool "same stream" true (D.Prng.int a max_int = D.Prng.int b max_int)
  done;
  let c = D.Prng.create 2 in
  check_bool "different seed differs" true (D.Prng.int a max_int <> D.Prng.int c max_int)

let test_prng_bounds () =
  let p = D.Prng.create 3 in
  for _ = 1 to 1000 do
    let v = D.Prng.int p 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = D.Prng.int_in p 5 9 in
    check_bool "inclusive range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let v = D.Prng.float p 2.5 in
    check_bool "float range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_weighted () =
  let p = D.Prng.create 4 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let k = D.Prng.weighted p [ ("a", 0.9); ("b", 0.1) ] in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  check_bool "rough proportion" true (a > 8_500 && a < 9_500)

let test_prng_shuffle_permutes () =
  let p = D.Prng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  D.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 50 (fun i -> i));
  check_bool "actually shuffled" true (arr <> Array.init 50 (fun i -> i))

(* --- Zipf -------------------------------------------------------------- *)

let test_zipf_skew () =
  let z = D.Zipf.create ~s:1.0 100 in
  let p = D.Prng.create 6 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let r = D.Zipf.sample z p in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(10));
  check_bool "rank 10 beats rank 90" true (counts.(10) > counts.(90))

(* --- Enterprise --------------------------------------------------------- *)

let small_config =
  { D.Enterprise.default_config with D.Enterprise.employees = 1_000 }

let enterprise = lazy (D.Enterprise.build small_config)

let test_enterprise_shape () =
  let e = Lazy.force enterprise in
  let b = D.Enterprise.backend e in
  check_bool "person count near configured" true
    (abs (D.Enterprise.person_count e - 1_000) < 20);
  (* Every employee is a direct child of its country (flat namespace). *)
  Array.iter
    (fun (emp : D.Enterprise.employee) ->
      check_bool "flat" true
        (Dn.parent_of
           (D.Enterprise.country_dn e emp.D.Enterprise.emp_country)
           emp.D.Enterprise.emp_dn))
    (D.Enterprise.employees e);
  (* Target geography holds roughly 30% of employees. *)
  let target =
    List.fold_left
      (fun acc ci -> acc + Array.length (D.Enterprise.employees_of_country e ci))
      0
      (List.init (D.Enterprise.config e).D.Enterprise.target_countries Fun.id)
  in
  let share = float_of_int target /. float_of_int (D.Enterprise.person_count e) in
  check_bool "target share" true (share > 0.25 && share < 0.35);
  (* Departments are resolvable entries under divisions. *)
  let sample_dept = (D.Enterprise.dept_numbers e).(0) in
  let division = int_of_string (String.sub sample_dept 0 2) in
  let dept_dn =
    Dn.child_ava (D.Enterprise.division_dn e division) "ou" ("dept-" ^ sample_dept)
  in
  check_bool "dept entry exists" true (Backend.find b dept_dn <> None)

let test_enterprise_serials_organized () =
  let e = Lazy.force enterprise in
  Array.iter
    (fun (emp : D.Enterprise.employee) ->
      (* 2 (country block) + 5 (sequence). *)
      check_int "fixed width" 7
        (String.length emp.D.Enterprise.emp_serial);
      let country_prefix = Printf.sprintf "%02d" emp.D.Enterprise.emp_country in
      check_bool "country block prefix" true
        (String.sub emp.D.Enterprise.emp_serial 0 2 = country_prefix))
    (D.Enterprise.employees e)

let test_enterprise_searchable () =
  let e = Lazy.force enterprise in
  let b = D.Enterprise.backend e in
  let emp = (D.Enterprise.employees e).(42) in
  let q =
    Query.make ~base:(D.Enterprise.root_dn e)
      (Filter.of_string_exn
         (Printf.sprintf "(serialNumber=%s)" emp.D.Enterprise.emp_serial))
  in
  match Backend.search b q with
  | Ok { Backend.entries = [ found ]; _ } ->
      check_bool "right entry" true (Dn.equal (Entry.dn found) emp.D.Enterprise.emp_dn)
  | _ -> Alcotest.fail "serial lookup failed"

let test_enterprise_deterministic () =
  let a = D.Enterprise.build small_config in
  let b = D.Enterprise.build small_config in
  check_int "same size" (D.Enterprise.person_count a) (D.Enterprise.person_count b);
  let ea = (D.Enterprise.employees a).(7) and eb = (D.Enterprise.employees b).(7) in
  check_bool "same employee" true (Dn.equal ea.D.Enterprise.emp_dn eb.D.Enterprise.emp_dn);
  check_bool "same mail" true (ea.D.Enterprise.emp_mail = eb.D.Enterprise.emp_mail);
  let dump e =
    let b = D.Enterprise.backend e in
    List.sort compare
      (List.of_seq
         (Seq.map
            (fun e -> (Dn.canonical (Entry.dn e), Entry.content_hash64 e))
            (Content_store.to_seq (Backend.content_store b))))
  in
  check_bool "same content" true (dump a = dump b);
  (* The build leaves the update log trimmed: experiments see only
     their own updates. *)
  check_int "log trimmed" 0 (List.length (Backend.log_since (D.Enterprise.backend a) Csn.zero))

(* --- Workload ------------------------------------------------------------ *)

let test_workload_mix () =
  let e = Lazy.force enterprise in
  let items =
    D.Workload.generate e { D.Workload.default_config with D.Workload.length = 10_000 }
  in
  check_int "length" 10_000 (Array.length items);
  List.iter
    (fun (kind, share) ->
      let expected =
        match kind with
        | D.Workload.Serial -> 0.58
        | D.Workload.Mail -> 0.24
        | D.Workload.Dept -> 0.16
        | D.Workload.Location -> 0.02
      in
      check_bool
        (Printf.sprintf "%s near %.2f" (D.Workload.kind_name kind) expected)
        true
        (abs_float (share -. expected) < 0.05))
    (D.Workload.mix_of items)

let test_workload_queries_answerable () =
  let e = Lazy.force enterprise in
  let b = D.Enterprise.backend e in
  let items =
    D.Workload.generate e { D.Workload.default_config with D.Workload.length = 300 }
  in
  (* Root-based queries exist and find at least one entry; scoped
     variants find the same entries. *)
  Array.iter
    (fun (item : D.Workload.item) ->
      let count q = Backend.count_matching b q in
      let root_count = count item.D.Workload.query in
      check_bool "answerable" true (root_count >= 1);
      check_int "scoped equals root" root_count (count item.D.Workload.scoped))
    items

let test_workload_repeats () =
  let e = Lazy.force enterprise in
  let items =
    D.Workload.generate e { D.Workload.default_config with D.Workload.length = 5_000 }
  in
  (* Temporal locality: a noticeable share of exact repeats. *)
  let seen = Hashtbl.create 1024 in
  let repeats = ref 0 in
  Array.iter
    (fun (item : D.Workload.item) ->
      let key = Query.to_string item.D.Workload.query in
      if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ())
    items;
  let share = float_of_int !repeats /. 5_000.0 in
  check_bool "repeat share" true (share > 0.10 && share < 0.85)

(* --- Trace ----------------------------------------------------------------- *)

(* A trace travels through a file: [save], then [load]. *)
let through_file write =
  let path = Filename.temp_file "trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path write;
      In_channel.with_open_text path D.Trace.load)

let test_trace_round_trip () =
  let e = Lazy.force enterprise in
  let items =
    D.Workload.generate e { D.Workload.default_config with D.Workload.length = 200 }
  in
  match through_file (fun oc -> D.Trace.save oc items) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
      check_int "same length" (Array.length items) (Array.length parsed);
      Array.iteri
        (fun i (item : D.Workload.item) ->
          let p = parsed.(i) in
          check_bool "kind" true (p.D.Workload.kind = item.D.Workload.kind);
          check_bool "query" true (Query.equal p.D.Workload.query item.D.Workload.query);
          check_bool "scoped" true (Query.equal p.D.Workload.scoped item.D.Workload.scoped))
        items

let test_trace_errors_and_comments () =
  let load text = through_file (fun oc -> output_string oc text) in
  (match load "# comment\n\n" with
  | Ok [||] -> ()
  | _ -> Alcotest.fail "comments/blank should parse to empty");
  check_bool "missing fields" true (Result.is_error (load "serialNumber\tsub\to=xyz\n"));
  check_bool "bad kind" true (Result.is_error (load "bogus\tsub\to=xyz\t(a=1)\to=xyz\n"));
  check_bool "bad filter" true (Result.is_error (load "mail\tsub\to=xyz\t(((\to=xyz\n"));
  check_bool "kind aliases" true
    (match load "DEPT\tsub\to=xyz\t(departmentNumber=1)\to=xyz\n" with
    | Ok [| item |] -> item.D.Workload.kind = D.Workload.Dept
    | _ -> false)

(* --- Update stream -------------------------------------------------------- *)

let test_update_stream_valid_ops () =
  let e = D.Enterprise.build small_config in
  let stream = D.Update_stream.create e D.Update_stream.default_config in
  let before = Backend.csn (D.Enterprise.backend e) in
  D.Update_stream.steps stream 500;
  let records = Backend.log_since (D.Enterprise.backend e) before in
  check_int "all ops applied and committed" 500 (List.length records)

let test_update_stream_mix () =
  let e = D.Enterprise.build small_config in
  let stream = D.Update_stream.create e D.Update_stream.default_config in
  let before = Backend.csn (D.Enterprise.backend e) in
  D.Update_stream.steps stream 1_000;
  let records = Backend.log_since (D.Enterprise.backend e) before in
  let count kind =
    List.length
      (List.filter (fun (r : Update.record) -> Update.op_kind_name r.Update.op = kind) records)
  in
  check_bool "modifies dominate" true (count "modify" > 500);
  check_bool "adds present" true (count "add" > 50);
  check_bool "deletes present" true (count "delete" > 50);
  check_bool "renames present" true (count "modifyDN" > 10)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng weighted" `Quick test_prng_weighted;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "enterprise shape" `Quick test_enterprise_shape;
    Alcotest.test_case "serials organized" `Quick test_enterprise_serials_organized;
    Alcotest.test_case "enterprise searchable" `Quick test_enterprise_searchable;
    Alcotest.test_case "enterprise deterministic" `Quick test_enterprise_deterministic;
    Alcotest.test_case "workload mix" `Quick test_workload_mix;
    Alcotest.test_case "workload answerable" `Quick test_workload_queries_answerable;
    Alcotest.test_case "workload repeats" `Quick test_workload_repeats;
    Alcotest.test_case "trace round trip" `Quick test_trace_round_trip;
    Alcotest.test_case "trace errors" `Quick test_trace_errors_and_comments;
    Alcotest.test_case "update stream valid" `Quick test_update_stream_valid_ops;
    Alcotest.test_case "update stream mix" `Quick test_update_stream_mix;
  ]
