(* Tests for Ldap.Backend and its update log, Ldap.Server and
   Ldap.Network, including the Figure 2 distributed-operation
   scenario. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let entry dn_s attrs = Entry.make (dn dn_s) attrs

let org = entry "o=xyz" [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name parent serial =
  entry
    (Printf.sprintf "cn=%s,%s" name parent)
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("serialNumber", [ serial ]);
    ]

let ou name parent =
  entry
    (Printf.sprintf "ou=%s,%s" name parent)
    [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ name ]) ]

let must_apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e
let must = function Ok v -> v | Error e -> failwith e
let rdn s = match Dn.rdn_of_string s with Ok r -> r | Error e -> failwith e
let log_length b = List.length (Backend.log_since b Csn.zero)
let add_values attr values = { Update.mod_kind = Update.Add_values; mod_attr = attr; mod_values = values }

let delete_values attr values =
  { Update.mod_kind = Update.Delete_values; mod_attr = attr; mod_values = values }

let make_backend () =
  let b = Backend.create ~indexed:[ "serialnumber"; "cn" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  let apply = must_apply b in
  apply (Update.add (ou "research" "o=xyz"));
  apply (Update.add (ou "sales" "o=xyz"));
  apply (Update.add (person "alice" "ou=research,o=xyz" "1001"));
  apply (Update.add (person "bob" "ou=research,o=xyz" "1002"));
  apply (Update.add (person "carol" "ou=sales,o=xyz" "2001"));
  b

let q ?(scope = Scope.Sub) base filter = Query.make ~scope ~base:(dn base) (f filter)

let search_count b query =
  match Backend.search b query with
  | Ok { Backend.entries; _ } -> List.length entries
  | Error _ -> -1

let test_dit_basics () =
  let b = make_backend () in
  check_int "total entries" 6 (Backend.total_entries b);
  check_bool "find existing" true (Backend.find b (dn "cn=alice,ou=research,o=xyz") <> None);
  check_bool "find missing" true (Backend.find b (dn "cn=zoe,o=xyz") = None)

let test_add_validation () =
  let b = make_backend () in
  let dup = person "alice" "ou=research,o=xyz" "1001" in
  check_bool "duplicate add fails" true (Result.is_error (Backend.apply b (Update.add dup)));
  let orphan = person "dave" "ou=missing,o=xyz" "3001" in
  check_bool "orphan add fails" true (Result.is_error (Backend.apply b (Update.add orphan)));
  let outside = person "eve" "o=other" "4001" in
  check_bool "outside context fails" true
    (Result.is_error (Backend.apply b (Update.add outside)));
  let no_oc = Entry.make (dn "cn=frank,o=xyz") [ ("cn", [ "frank" ]) ] in
  check_bool "no objectclass fails" true
    (Result.is_error (Backend.apply b (Update.Add no_oc)))

let test_naming_attr_autofill () =
  let b = make_backend () in
  let e = Entry.make (dn "cn=gina,o=xyz") [ ("objectclass", [ "person" ]); ("sn", [ "g" ]) ] in
  (match Backend.apply b (Update.Add e) with Ok _ -> () | Error e -> failwith e);
  let stored = Option.get (Backend.find b (dn "cn=gina,o=xyz")) in
  check_bool "naming value added" true (Entry.has_value stored "cn" "gina")

let test_delete () =
  let b = make_backend () in
  check_bool "delete non-leaf fails" true
    (Result.is_error (Backend.apply b (Update.delete (dn "ou=research,o=xyz"))));
  must_apply b (Update.delete (dn "cn=alice,ou=research,o=xyz"));
  check_bool "deleted" true (Backend.find b (dn "cn=alice,ou=research,o=xyz") = None);
  check_int "count down" 5 (Backend.total_entries b);
  check_bool "delete missing fails" true
    (Result.is_error (Backend.apply b (Update.delete (dn "cn=alice,ou=research,o=xyz"))))

let test_modify () =
  let b = make_backend () in
  let target = dn "cn=alice,ou=research,o=xyz" in
  (match
     Backend.apply b
       (Update.modify target
          [ Update.replace_values "mail" [ "alice@xyz.com" ];
            add_values "departmentNumber" [ "2406" ] ])
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let stored = Option.get (Backend.find b target) in
  check_bool "mail set" true (Entry.has_value stored "mail" "alice@xyz.com");
  check_bool "dept set" true (Entry.has_value stored "departmentnumber" "2406");
  check_bool "delete absent value fails" true
    (Result.is_error
       (Backend.apply b (Update.modify target [ delete_values "mail" [ "nope@x" ] ])));
  (* Index follows modification. *)
  (match Backend.apply b (Update.modify target [ Update.replace_values "serialNumber" [ "9999" ] ]) with
  | Ok _ -> ()
  | Error e -> failwith e);
  check_int "old serial gone" 0 (search_count b (q "o=xyz" "(serialNumber=1001)"));
  check_int "new serial found" 1 (search_count b (q "o=xyz" "(serialNumber=9999)"))

let test_modify_dn () =
  let b = make_backend () in
  let target = dn "cn=alice,ou=research,o=xyz" in
  let new_rdn = match Dn.rdn_of_string "cn=alicia" with Ok r -> r | Error e -> failwith e in
  (match
     Backend.apply b
       (Update.modify_dn ~new_superior:(dn "ou=sales,o=xyz") target new_rdn)
   with
  | Ok record ->
      check_bool "before present" true (record.Update.before <> None);
      check_bool "after present" true (record.Update.after <> None)
  | Error e -> failwith e);
  check_bool "old gone" true (Backend.find b target = None);
  let moved = Option.get (Backend.find b (dn "cn=alicia,ou=sales,o=xyz")) in
  check_bool "new rdn value" true (Entry.has_value moved "cn" "alicia");
  check_bool "old rdn value deleted" false (Entry.has_value moved "cn" "alice");
  check_int "index moved" 1 (search_count b (q "ou=sales,o=xyz" "(serialNumber=1001)"));
  let moved_dn = dn "cn=alicia,ou=sales,o=xyz" in
  check_bool "move under itself refused" true
    (Result.is_error
       (Backend.apply b (Update.modify_dn ~new_superior:moved_dn moved_dn (rdn "cn=x"))));
  check_bool "refused move keeps the entry" true (Backend.find b moved_dn <> None)

let test_search_scopes () =
  let b = make_backend () in
  check_int "sub all" 6 (search_count b (q "o=xyz" "(objectclass=*)"));
  check_int "one level" 2 (search_count b (q ~scope:Scope.One "o=xyz" "(objectclass=*)"));
  check_int "base" 1 (search_count b (q ~scope:Scope.Base "o=xyz" "(objectclass=*)"));
  check_int "sub persons" 3 (search_count b (q "o=xyz" "(objectclass=inetOrgPerson)"));
  check_int "subtree research" 3 (search_count b (q "ou=research,o=xyz" "(objectclass=*)"));
  check_bool "missing base errors" true
    (match Backend.search b (q "ou=nope,o=xyz" "(objectclass=*)") with
    | Error (Backend.No_such_object _) -> true
    | _ -> false)

let test_search_indexed_vs_scan () =
  let b = make_backend () in
  (* serialNumber is indexed, mail is not: both must agree. *)
  check_int "indexed eq" 1 (search_count b (q "o=xyz" "(serialNumber=1002)"));
  check_int "indexed prefix" 2 (search_count b (q "o=xyz" "(serialNumber=10*)"));
  check_int "and with index" 1
    (search_count b (q "o=xyz" "(&(serialNumber=1002)(objectclass=inetOrgPerson))"));
  check_int "scan filter" 2
    (search_count b (q "o=xyz" "(|(serialNumber=1001)(serialNumber=2001))"));
  check_int "scoped index lookup excludes others" 0
    (search_count b (q "ou=sales,o=xyz" "(serialNumber=1001)"))

let test_attribute_selection () =
  let b = make_backend () in
  let query =
    Query.make ~attrs:(Query.Select [ "cn" ]) ~base:(dn "o=xyz") (f "(serialNumber=1001)")
  in
  match Backend.search b query with
  | Ok { Backend.entries = [ e ]; _ } ->
      check_bool "cn kept" true (Entry.has_attribute e "cn");
      check_bool "serial dropped" false (Entry.has_attribute e "serialnumber")
  | _ -> Alcotest.fail "expected one entry"

let test_count_matching () =
  let b = make_backend () in
  check_int "count" 3 (Backend.count_matching b (q "o=xyz" "(objectclass=inetOrgPerson)"))

(* The postings span every naming context and hold referral objects,
   so a count read off them would be wrong in either case: the count
   must be the search's. *)
let test_count_matching_contexts_referrals () =
  let b = make_backend () in
  let both query =
    check_int ("count = search " ^ Query.to_string query) (search_count b query)
      (Backend.count_matching b query)
  in
  both (q "o=xyz" "(cn=alice)");
  (match Backend.add_context b (entry "o=abc" [ ("objectclass", [ "organization" ]); ("o", [ "abc" ]) ]) with
  | Ok () -> ()
  | Error e -> failwith e);
  must_apply b (Update.add (person "alice" "o=abc" "1001"));
  check_int "one alice under o=xyz" 1 (Backend.count_matching b (q "o=xyz" "(cn=alice)"));
  check_int "prefix under o=abc" 1 (Backend.count_matching b (q "o=abc" "(cn=al*)"));
  List.iter both [ q "o=xyz" "(cn=alice)"; q "o=abc" "(cn=a*)"; q "o=xyz" "(serialNumber=1001)" ];
  let b = make_backend () in
  must_apply b
    (Update.add
       (entry "cn=alice,ou=sales,o=xyz"
          [
            ("objectclass", [ "referral"; "extensibleObject" ]);
            ("cn", [ "alice" ]);
            ("ref", [ "ldap://hostB/cn=alice,ou=sales,o=xyz" ]);
          ]));
  check_int "referral object not counted" 1 (Backend.count_matching b (q "o=xyz" "(cn=alice)"));
  check_int "nor under a prefix" 1 (Backend.count_matching b (q "o=xyz" "(cn=ali*)"));
  let managed = Query.make ~manage_dsa_it:true ~base:(dn "o=xyz") (f "(cn=alice)") in
  check_int "manageDsaIT counts it" 2 (Backend.count_matching b managed);
  List.iter both [ q "o=xyz" "(cn=alice)"; q "o=xyz" "(cn=a*)"; managed ]

let test_log () =
  let b = make_backend () in
  let csn0 = Backend.csn b in
  ignore (Backend.apply b (Update.delete (dn "cn=carol,ou=sales,o=xyz")));
  let records = Backend.log_since b csn0 in
  check_int "one record" 1 (List.length records);
  check_bool "complete" true (Backend.log_complete_since b csn0);
  Backend.trim_log b ~before:(Backend.csn b);
  (* Records up to csn0 are gone, so the log no longer reaches back to
     the beginning — but it still covers (csn0, now]. *)
  check_bool "still covers csn0" true (Backend.log_complete_since b csn0);
  check_bool "incomplete from zero" false (Backend.log_complete_since b Csn.zero);
  check_int "trimmed length" 1 (log_length b)

(* The update log lives on the content store's change spine.  These
   run against a backend holding only its context entry, so the i-th
   commit has CSN i. *)

let log_backend () =
  let b = Backend.create () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

(* One commit: a modify of the context entry. *)
let commit b i =
  must_apply b
    (Update.modify (dn "o=xyz") [ Update.replace_values "description" [ string_of_int i ] ])

let csns records = List.map (fun (r : Update.record) -> Csn.to_int r.Update.csn) records

let test_log_ring () =
  (* The log against a reference list: [log_since], [log_length],
     [trim_log] and the floor must agree through spine growth and
     interleaved trimming. *)
  let b = log_backend () in
  let reference = ref [] in  (* CSNs, newest first *)
  let check_against_reference i =
    (* Probe a handful of resume points around the current csn. *)
    List.iter
      (fun since ->
        Alcotest.(check (list int))
          (Printf.sprintf "since %d at %d" since i)
          (List.filter (fun c -> since < c) (List.rev !reference))
          (csns (Backend.log_since b (Csn.of_int since))))
      [ 0; i / 2; max 0 (i - 3); i ]
  in
  for i = 1 to 100 do
    commit b i;
    reference := i :: !reference;
    if i mod 31 = 0 then begin
      (* Drop everything below i - 10. *)
      Backend.trim_log b ~before:(Csn.of_int (i - 10));
      reference := List.filter (fun c -> i - 10 <= c) !reference
    end;
    check_int "length" (List.length !reference) (log_length b);
    if i mod 7 = 0 then check_against_reference i
  done;
  check_against_reference 100;
  (* Floor semantics: complete iff nothing above the cursor was trimmed. *)
  check_bool "incomplete from zero" false (Backend.log_complete_since b Csn.zero);
  check_bool "complete from floor" true (Backend.log_complete_since b (Backend.log_floor b));
  (* Trimming below the floor never lowers it. *)
  let floor = Backend.log_floor b in
  Backend.trim_log b ~before:Csn.zero;
  check_bool "floor monotone" true (Csn.equal floor (Backend.log_floor b))

(* Edge cases around the log's floor: trims that empty the log, trims
   past the head, and a compacted spine read back at the floor. *)

let test_log_trim_to_empty () =
  let b = log_backend () in
  for i = 1 to 5 do commit b i done;
  Backend.trim_log b ~before:(Csn.of_int 6);
  check_int "emptied" 0 (log_length b);
  check_int "spine emptied" 0 (Content_store.spine_length (Backend.content_store b));
  check_bool "floor raised to before-1" true
    (Csn.equal (Backend.log_floor b) (Csn.of_int 5));
  check_int "since floor empty" 0
    (List.length (Backend.log_since b (Backend.log_floor b)));
  check_bool "complete from the floor" true
    (Backend.log_complete_since b (Csn.of_int 5));
  check_bool "incomplete below the floor" false
    (Backend.log_complete_since b (Csn.of_int 4));
  (* Commits resume normally on the emptied log. *)
  commit b 6;
  check_int "one record" 1 (log_length b);
  check_int "replay from the floor" 1
    (List.length (Backend.log_since b (Csn.of_int 5)))

let test_log_trim_past_head () =
  let b = log_backend () in
  for i = 1 to 5 do commit b i done;
  (* Trim far beyond anything committed: everything goes and the floor
     lands at before-1, not at the last record. *)
  Backend.trim_log b ~before:(Csn.of_int 100);
  check_int "emptied" 0 (log_length b);
  check_bool "floor at before-1" true
    (Csn.equal (Backend.log_floor b) (Csn.of_int 99));
  check_bool "complete from 99" true (Backend.log_complete_since b (Csn.of_int 99));
  check_bool "incomplete from 98" false (Backend.log_complete_since b (Csn.of_int 98));
  for i = 6 to 100 do commit b i done;
  match Backend.log_since b (Csn.of_int 99) with
  | [ r ] -> check_bool "resumed at 100" true (Csn.equal r.Update.csn (Csn.of_int 100))
  | l -> check_int "one record after resume" 1 (List.length l)

let test_log_wraparound_since_floor () =
  (* Fill the spine's initial 64 slots (the context entry's event plus
     63 commits), trim to move its start forward, then commit past the
     end so the retained events are compacted to the front, and read
     straight back at the floor: the seam must be invisible. *)
  let b = log_backend () in
  for i = 1 to 63 do commit b i done;
  Backend.trim_log b ~before:(Csn.of_int 40);
  check_int "24 retained" 24 (log_length b);
  for i = 64 to 80 do commit b i done;
  check_int "grown again" 41 (log_length b);
  check_bool "floor" true (Csn.equal (Backend.log_floor b) (Csn.of_int 39));
  Alcotest.(check (list int))
    "csn order across the seam" (List.init 41 (fun k -> 40 + k))
    (csns (Backend.log_since b (Backend.log_floor b)));
  check_int "suffix past the seam" 10
    (List.length (Backend.log_since b (Csn.of_int 70)));
  check_bool "complete from the floor" true
    (Backend.log_complete_since b (Backend.log_floor b));
  check_bool "incomplete below" false (Backend.log_complete_since b (Csn.of_int 38))

let test_subscribers () =
  let b = make_backend () in
  let seen = ref [] in
  Backend.subscribe b (fun r -> seen := Update.op_kind_name r.Update.op :: !seen);
  ignore (Backend.apply b (Update.delete (dn "cn=carol,ou=sales,o=xyz")));
  ignore (Backend.apply b (Update.add (person "dan" "ou=sales,o=xyz" "2002")));
  Alcotest.(check (list string)) "notifications in order" [ "add"; "delete" ] !seen

let test_many_subscribers_ordered () =
  let b = make_backend () in
  let seen = ref [] in
  for i = 0 to 99 do
    Backend.subscribe b (fun _ -> seen := i :: !seen)
  done;
  ignore (Backend.apply b (Update.delete (dn "cn=carol,ou=sales,o=xyz")));
  Alcotest.(check (list int)) "registration order" (List.init 100 Fun.id) (List.rev !seen)

(* --- Oracle property: search = naive scan ------------------------------
   The indexed fast path, scope handling and referral exclusion must
   agree with a direct evaluation over every entry, after a random
   script of updates: postings and child links are checked under
   change, not only as first built. *)

let naive_search backend (query : Query.t) =
  Backend.fold_entries backend ~init:[] ~f:(fun acc e ->
      if
        Query.in_scope query (Entry.dn e)
        && Filter.matches (query.Query.filter :> Filter.t) e
        && not (Entry.is_referral e)
      then Dn.canonical (Entry.dn e) :: acc
      else acc)
  |> List.sort String.compare

let research = "ou=research,o=xyz"
let sales = "ou=sales,o=xyz"

(* Person [who]: p00..p59 exist from the start, q00..q19 once added. *)
let person_name who =
  if who < 60 then Printf.sprintf "p%02d" who else Printf.sprintf "q%02d" (who - 60)

let oracle_person who parent serial dept =
  let name = person_name who in
  entry
    (Printf.sprintf "cn=%s,%s" name parent)
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("serialNumber", [ Printf.sprintf "%04d" serial ]);
      ("departmentNumber", [ Printf.sprintf "%02d" dept ]);
    ]

let oracle_backend () =
  let b = Backend.create ~indexed:[ "serialnumber"; "departmentnumber" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  must_apply b (Update.add (ou "research" "o=xyz"));
  must_apply b (Update.add (ou "sales" "o=xyz"));
  for i = 0 to 59 do
    must_apply b
      (Update.Add (oracle_person i (if i mod 2 = 0 then research else sales) i (i mod 7)))
  done;
  b

type script_op =
  | Add of int * bool * int * int  (* who, under research?, serial, dept *)
  | Set_serial of int * int
  | Set_dept of int * int
  | Delete of int
  | Move of int  (* to the other of research and sales *)

let script_op_to_string = function
  | Add (w, r, s, d) ->
      Printf.sprintf "add %s under %s serial %04d dept %02d" (person_name w)
        (if r then "research" else "sales") s d
  | Set_serial (w, s) -> Printf.sprintf "serial of %s := %04d" (person_name w) s
  | Set_dept (w, d) -> Printf.sprintf "dept of %s := %02d" (person_name w) d
  | Delete w -> "delete " ^ person_name w
  | Move w -> "move " ^ person_name w

(* Ops on an absent person are skipped.  An add of a live DN, or a move
   onto one, fails and must leave the backend unchanged. *)
let run_script_op b op =
  let at who parent = dn (Printf.sprintf "cn=%s,%s" (person_name who) parent) in
  let on who mk =
    List.find_opt (fun p -> Backend.find b (at who p) <> None) [ research; sales ]
    |> Option.iter (fun parent -> ignore (Backend.apply b (mk parent (at who parent))))
  in
  match op with
  | Add (w, r, s, d) ->
      ignore (Backend.apply b (Update.Add (oracle_person w (if r then research else sales) s d)))
  | Set_serial (w, s) ->
      on w (fun _ target ->
          Update.modify target
            [ Update.replace_values "serialNumber" [ Printf.sprintf "%04d" s ] ])
  | Set_dept (w, d) ->
      on w (fun _ target ->
          Update.modify target
            [ Update.replace_values "departmentNumber" [ Printf.sprintf "%02d" d ] ])
  | Delete w -> on w (fun _ target -> Update.delete target)
  | Move w ->
      on w (fun parent target ->
          Update.modify_dn
            ~new_superior:(dn (if parent = research then sales else research))
            target
            (rdn ("cn=" ^ person_name w)))

let script_gen =
  let open QCheck.Gen in
  let who = 0 -- 79 and serial = 0 -- 70 and dept = 0 -- 8 in
  list_size (0 -- 25)
    (oneof
       [
         map3 (fun w r (s, d) -> Add (w, r, s, d)) who bool (pair serial dept);
         map2 (fun w s -> Set_serial (w, s)) who serial;
         map2 (fun w d -> Set_dept (w, d)) who dept;
         map (fun w -> Delete w) who;
         map (fun w -> Move w) who;
       ])

let query_gen =
  let open QCheck.Gen in
  let base =
    oneofl [ "o=xyz"; "ou=research,o=xyz"; "ou=sales,o=xyz"; "cn=p04,ou=research,o=xyz" ]
  in
  let scope = oneofl [ Scope.Base; Scope.One; Scope.Sub ] in
  let value = map (fun i -> Printf.sprintf "%04d" i) (0 -- 70) in
  let dept = map (fun i -> Printf.sprintf "%02d" i) (0 -- 8) in
  let filter =
    oneof
      [
        map (fun v -> Printf.sprintf "(serialNumber=%s)" v) value;
        map (fun v -> Printf.sprintf "(serialNumber=%s*)" (String.sub v 0 3)) value;
        map (fun d -> Printf.sprintf "(departmentNumber=%s)" d) dept;
        map2 (fun v d -> Printf.sprintf "(&(serialNumber>=%s)(departmentNumber=%s))" v d)
          value dept;
        map (fun d -> Printf.sprintf "(|(departmentNumber=%s)(serialNumber=0003))" d) dept;
        map (fun d -> Printf.sprintf "(!(departmentNumber=%s))" d) dept;
        return "(objectclass=inetOrgPerson)";
        (* The shapes a shard's ownership conjunct gives a routed query:
           an indexed union beside a smaller conjunct is priced only up
           to the best count so far, ties keep the first conjunct, and
           an unindexed disjunct leaves its union unindexed. *)
        map (fun d -> Printf.sprintf "(&(|(serialNumber=00*)(serialNumber=01*))(departmentNumber=%s))" d)
          dept;
        map3
          (fun v w d ->
            Printf.sprintf "(&(|(serialNumber=%s*)(serialNumber=%s*))(departmentNumber=%s))"
              (String.sub v 0 3) (String.sub w 0 3) d)
          value value dept;
        map (fun v -> Printf.sprintf "(&(serialNumber=00*)(serialNumber=%s))" v) value;
        map2 (fun v w -> Printf.sprintf "(&(serialNumber=%s)(serialNumber=%s))" v w) value value;
        map2 (fun d e -> Printf.sprintf "(&(departmentNumber=%s)(departmentNumber=%s))" d e)
          dept dept;
        map2
          (fun v d ->
            Printf.sprintf "(&(|(serialNumber>=%s)(departmentNumber=%s))(serialNumber=%s*))" v d
              (String.sub v 0 3))
          value dept;
      ]
  in
  map3
    (fun base scope filter_s ->
      Query.make ~scope ~base:(Dn.of_string_exn base) (Filter.of_string_exn filter_s))
    base scope filter

let prop_search_matches_naive =
  QCheck.Test.make ~name:"backend: search equals naive scan" ~count:500
    (QCheck.make
       ~print:(fun (script, query) ->
         String.concat "; " (List.map script_op_to_string script)
         ^ " then " ^ Query.to_string query)
       (QCheck.Gen.pair script_gen query_gen))
    (fun (script, query) ->
      let b = oracle_backend () in
      List.iter (run_script_op b) script;
      match Backend.search b query with
      | Error _ -> naive_search b query = []
      | Ok { Backend.entries; _ } ->
          let got = List.map (fun e -> Dn.canonical (Entry.dn e)) entries in
          let fold_order =
            List.rev
              (Backend.fold_entries b ~init:[] ~f:(fun acc e -> Dn.canonical (Entry.dn e) :: acc))
          in
          (* Results come in slot order, which is fold order. *)
          got = List.filter (fun d -> List.mem d got) fold_order
          && List.sort String.compare got = naive_search b query)

(* --- Figure 2: distributed operation processing ---------------------- *)

let figure2_network () =
  (* hostA: o=xyz with referral objects to hostB and hostC.
     hostB: ou=research,c=us,o=xyz.  hostC: c=in,o=xyz. *)
  let net = Network.create () in
  let backend_a = Backend.create () in
  (match Backend.add_context backend_a org with Ok () -> () | Error e -> failwith e);
  let apply_a op =
    match Backend.apply backend_a op with Ok _ -> () | Error e -> failwith e
  in
  apply_a (Update.add (entry "c=us,o=xyz" [ ("objectclass", [ "country" ]); ("c", [ "us" ]) ]));
  apply_a (Update.add (person "fred jones" "o=xyz" "0001"));
  apply_a
    (Update.add
       (entry "ou=research,c=us,o=xyz"
          [
            ("objectclass", [ "referral" ]);
            ("ref", [ Referral.make ~host:"hostB" ~dn:(dn "ou=research,c=us,o=xyz") () ]);
          ]));
  apply_a
    (Update.add
       (entry "c=in,o=xyz"
          [
            ("objectclass", [ "referral" ]);
            ("ref", [ Referral.make ~host:"hostC" ~dn:(dn "c=in,o=xyz") () ]);
          ]));
  let backend_b = Backend.create () in
  (match
     Backend.add_context backend_b
       (entry "ou=research,c=us,o=xyz" [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "research" ]) ])
   with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Backend.apply backend_b (Update.add (person "john doe" "ou=research,c=us,o=xyz" "0456")) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let backend_c = Backend.create () in
  (match
     Backend.add_context backend_c
       (entry "c=in,o=xyz" [ ("objectclass", [ "country" ]); ("c", [ "in" ]) ])
   with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Backend.apply backend_c (Update.add (person "asha" "c=in,o=xyz" "0789")) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let url_a = Referral.make ~host:"hostA" () in
  let servers =
    [
      ("hostA", Server.handler backend_a);
      ("hostB", Server.handler ~default_referral:url_a backend_b);
      ("hostC", Server.handler ~default_referral:url_a backend_c);
    ]
  in
  List.iter (fun (name, handler) -> Network.add_handler net ~name handler) servers;
  (net, fun name -> List.assoc name servers)

let referral_host url =
  match Referral.parse url with Ok r -> r.Referral.host | Error e -> failwith e

let test_figure2_round_trips () =
  let net, _ = figure2_network () in
  Network.reset_stats net;
  (* Client asks hostB for a subtree search based at o=xyz. *)
  match Network.search net ~from:"hostB" (q "o=xyz" "(objectclass=*)") with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      (* All entries from the three servers, minus referral objects. *)
      check_int "entries" 7 (List.length entries);
      (* Four round trips: hostB (default referral), hostA (entries +
         2 references), hostB and hostC with modified bases. *)
      check_int "round trips" 4 (Network.stats net).Network.sync_rpcs

(* One round trip, no chasing: what a minimally directory-enabled
   application sees when it hits a partial server (section 3.1.1). *)
let test_figure2_no_chase () =
  let _, server = figure2_network () in
  match server "hostB" (q "o=xyz" "(objectclass=*)") with
  | Server.Referral [ url ] -> check_bool "superior referral" true (referral_host url = "hostA")
  | _ -> Alcotest.fail "expected default referral"

let test_base_referral () =
  let _, server = figure2_network () in
  (* Searching hostA below the referral object for hostB. *)
  match
    server "hostA" (q "cn=john doe,ou=research,c=us,o=xyz" "(objectclass=*)")
  with
  | Server.Referral [ url ] -> check_bool "subordinate referral" true (referral_host url = "hostB")
  | _ -> Alcotest.fail "expected base referral"

(* --- Postings under modify streams ----------------------------------- *)

(* After any stream of modifies, every indexed equality search answers
   what a backend loaded from the final entries answers: postings move
   with exactly the values that changed. *)
let indexed_attrs = [ "serialnumber"; "cn"; "objectclass" ]
let pool = [ "a"; "A"; "b"; "c d"; "C  D"; "1001"; "42" ]

let modify_gen =
  let open QCheck.Gen in
  let item =
    map3
      (fun kind attr values ->
        match kind with
        | 0 -> add_values attr values
        | 1 -> Update.replace_values attr values
        | _ -> delete_values attr values)
      (0 -- 2)
      (oneofl [ "serialNumber"; "cn"; "l"; "mail"; "objectClass" ])
      (list_size (0 -- 2) (oneofl (pool @ [ "inetOrgPerson"; "person" ])))
  in
  pair (oneofl [ "alice"; "bob"; "carol" ]) (list_size (1 -- 3) item)

let person_dn = function
  | "carol" -> dn "cn=carol,ou=sales,o=xyz"
  | name -> dn (Printf.sprintf "cn=%s,ou=research,o=xyz" name)

let search_dns b attr v =
  match Backend.search b (q "o=xyz" (Printf.sprintf "(%s=%s)" attr v)) with
  | Ok r -> List.sort compare (List.map (fun e -> Dn.canonical (Entry.dn e)) r.Backend.entries)
  | Error _ -> []

let prop_postings_follow_modifies =
  QCheck.Test.make ~name:"backend: indexed search after modifies = fresh load" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 12) modify_gen))
    (fun stream ->
      let b = make_backend () in
      List.iter
        (fun (name, items) -> ignore (Backend.apply b (Update.modify (person_dn name) items)))
        stream;
      let fresh = Backend.create ~indexed:[ "serialnumber"; "cn" ] () in
      Backend.fold_entries b ~init:() ~f:(fun () e ->
          match Backend.restore_entry fresh e with
          | Ok () -> ()
          | Error _ -> ignore (Backend.add_context fresh e));
      List.for_all
        (fun attr ->
          List.for_all
            (fun v ->
              search_dns b attr v = search_dns fresh attr v
              && Backend.count_matching b (q "o=xyz" (Printf.sprintf "(%s=%s)" attr v))
                 = List.length (search_dns b attr v))
            (pool @ [ "alice"; "bob"; "carol"; "inetOrgPerson"; "person" ]))
        indexed_attrs)

(* --- One post-image per modify -------------------------------------------- *)

(* A modify's after-image is built in one edit, its stamp included; it
   must be what applying the items one at a time and then stamping
   builds, down to the encoded size, and the backend must file it as
   that: its referral set follows an objectClass change. *)
let post_image_gen =
  let open QCheck.Gen in
  let referral =
    oneofl
      [
        add_values "objectClass" [ "referral" ];
        add_values "ref" [ "ldap://b.example/o=xyz" ];
        delete_values "objectClass" [ "referral" ];
        Update.replace_values "objectClass" [ "inetOrgPerson"; "referral" ];
      ]
  in
  let* name, items = modify_gen in
  let* extra = list_size (0 -- 1) referral in
  return (name, List.filteri (fun i _ -> i < 3) (extra @ items))

let item_print (i : Update.mod_item) =
  Printf.sprintf "%s %s [%s]"
    (match i.mod_kind with Add_values -> "add" | Delete_values -> "delete" | Replace_values -> "replace")
    i.mod_attr (String.concat ";" i.mod_values)

(* The item alone, as the one-item mutators apply it. *)
let apply_item e (i : Update.mod_item) =
  match i.mod_kind with
  | Delete_values -> Entry.delete_values e i.mod_attr i.mod_values
  | Replace_values -> Ok (Entry.replace_values e i.mod_attr i.mod_values)
  | Add_values -> Entry.edit e [ i ]

let referral_count b =
  match Backend.search b (q "o=xyz" "(objectclass=*)") with
  | Ok r -> List.length r.Backend.references
  | Error _ -> -1

let prop_post_image =
  QCheck.Test.make ~name:"backend: modify post-image = mutators then stamp" ~count:300
    (QCheck.make
       ~print:(fun stream ->
         String.concat " / "
           (List.map (fun (n, items) -> n ^ ": " ^ String.concat ", " (List.map item_print items)) stream))
       QCheck.Gen.(list_size (1 -- 6) post_image_gen))
    (fun stream ->
      let b = make_backend () in
      List.for_all
        (fun (name, items) ->
          let target = person_dn name in
          let before = Option.get (Backend.find b target) in
          let stamp = Csn.to_string (Csn.next (Backend.csn b)) in
          let expected =
            List.fold_left (fun acc i -> Result.bind acc (fun e -> apply_item e i)) (Ok before) items
            |> Result.map (fun e -> Entry.replace_values e "modifytimestamp" [ stamp ])
          in
          let referrals =
            Backend.fold_entries b ~init:0 ~f:(fun n e -> if Entry.is_referral e then n + 1 else n)
          in
          match (Backend.apply b (Update.modify target items), expected) with
          | Ok { Update.after = Some after; _ }, Ok expected ->
              Entry.equal after expected
              && Ber.entry_size after = Ber.entry_size expected
              && Option.get (Backend.find b target) == after
              && referral_count b
                 = referrals
                   + Bool.to_int (Entry.is_referral after)
                   - Bool.to_int (Entry.is_referral before)
          | Error _, Error _ -> true
          | Error _, Ok expected -> Entry.get expected "objectclass" = []
          | Ok _, _ -> false)
        stream)

(* --- Integer postings and counts --------------------------------------- *)

(* Integer equality compares numbers, so "07" and "7" are one value:
   an indexed attribute must find it under either spelling, as an
   unindexed one does.  Substrings compare the spelled forms. *)
let test_integer_spellings () =
  List.iter
    (fun indexed ->
      let label s = Printf.sprintf "%s (%s)" s (String.concat "," indexed) in
      let b = Backend.create ~indexed () in
      (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
      must_apply b
        (Update.add
           (entry "cn=old,o=xyz"
              [ ("objectclass", [ "inetOrgPerson" ]); ("cn", [ "old" ]); ("sn", [ "o" ]);
                ("age", [ "07" ]) ]));
      List.iter
        (fun (filter, expected) ->
          let query = q "o=xyz" filter in
          check_int (label ("search " ^ filter)) expected (search_count b query);
          check_int (label ("count " ^ filter)) expected (Backend.count_matching b query))
        [ ("(age=7)", 1); ("(age=07)", 1); ("(age=0*)", 1); ("(age=7*)", 0); ("(age=8)", 0) ])
    [ [ "age" ]; [] ]

(* [count_matching] equals the length of [search]'s answer over random
   directories: multi-valued attributes, case and space variants, the
   [dept] alias spelled on entries, Integer ages indexed or not,
   referral objects, a second naming context, every scope, bases that
   are not a suffix, and substrings of every shape. *)
type cperson = {
  parent : int;
  cns : string list;
  depts : string list;
  alias : bool;
  age : string option;
  referral : bool;
}

let count_values = [ "ab"; "AB"; "a b"; " A  B "; "abc"; "b" ]
let count_ages = [ "7"; "07"; " 7"; "70"; "x" ]
let count_parents = [| "ou=research,o=xyz"; "ou=sales,o=xyz"; "o=abc" |]

let cperson_gen =
  let open QCheck.Gen in
  let values = list_size (0 -- 2) (oneofl count_values) in
  map3
    (fun (parent, cns) (depts, alias) (age, referral) ->
      { parent; cns; depts; alias; age; referral })
    (pair (0 -- 2) (list_size (1 -- 2) (oneofl count_values)))
    (pair values bool)
    (pair (opt (oneofl count_ages)) (map (fun k -> k = 0) (0 -- 4)))

let count_filter_gen =
  let open QCheck.Gen in
  let attr = oneofl [ "cn"; "departmentNumber"; "dept"; "age"; "serialNumber" ] in
  let value = oneofl (count_values @ count_ages) in
  let part = oneofl [ "a"; "A"; "a "; "b"; "0"; "7"; "" ] in
  map3
    (fun a (v, p) (shape, p2) ->
      let sub initial any final = Filter.Pred (Filter.Substrings (a, { Filter.initial; any; final })) in
      match shape with
      | 0 | 1 -> Filter.Pred (Filter.Equality (a, v))
      | 2 | 3 -> sub (Some p) [] None
      | 4 -> sub (Some p) [ p2 ] None
      | 5 -> sub None [] (Some p)
      | _ -> sub (Some p) [] (Some p2))
    attr (pair value part)
    (pair (0 -- 6) part)

let count_case_gen =
  let open QCheck.Gen in
  let query =
    map3
      (fun base scope (filter, manage_dsa_it) ->
        Query.make ~scope ~manage_dsa_it ~base:(dn base) filter)
      (oneofl [ "o=xyz"; "o=xyz"; "ou=research,o=xyz"; "o=abc"; "cn=p0,ou=research,o=xyz" ])
      (frequency [ (1, return Scope.Base); (1, return Scope.One); (3, return Scope.Sub) ])
      (pair count_filter_gen (map (fun k -> k = 0) (0 -- 4)))
  in
  quad bool bool (list_size (0 -- 10) cperson_gen) (list_size (1 -- 8) query)

let print_cperson p =
  Printf.sprintf "%s cn=[%s] %s=[%s] age=%s%s" count_parents.(p.parent)
    (String.concat "|" p.cns)
    (if p.alias then "dept" else "departmentNumber")
    (String.concat "|" p.depts)
    (Option.value p.age ~default:"-")
    (if p.referral then " referral" else "")

let prop_count_is_search_length =
  QCheck.Test.make ~name:"backend: count_matching = length of search" ~count:400
    (QCheck.make
       ~print:(fun (age_indexed, two_contexts, people, queries) ->
         Printf.sprintf "age indexed %b, two contexts %b; %s; queries %s" age_indexed
           two_contexts
           (String.concat "; " (List.map print_cperson people))
           (String.concat " " (List.map Query.to_string queries)))
       count_case_gen)
    (fun (age_indexed, two_contexts, people, queries) ->
      let indexed = [ "cn"; "departmentnumber"; "dept" ] @ if age_indexed then [ "age" ] else [] in
      let b = Backend.create ~indexed () in
      (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
      if two_contexts then
        ignore
          (Backend.add_context b
             (entry "o=abc" [ ("objectclass", [ "organization" ]); ("o", [ "abc" ]) ]));
      must_apply b (Update.add (ou "research" "o=xyz"));
      must_apply b (Update.add (ou "sales" "o=xyz"));
      List.iteri
        (fun i p ->
          let attrs =
            [
              ("objectclass", if p.referral then [ "referral"; "extensibleObject" ] else [ "inetOrgPerson" ]);
              ("cn", p.cns);
              ("sn", [ "s" ]);
              ((if p.alias then "dept" else "departmentNumber"), p.depts);
              ("age", Option.to_list p.age);
            ]
            @ if p.referral then [ ("ref", [ "ldap://hostB/o=xyz" ]) ] else []
          in
          ignore
            (Backend.apply b
               (Update.add (entry (Printf.sprintf "cn=p%d,%s" i count_parents.(p.parent)) attrs))))
        people;
      List.for_all
        (fun query ->
          let expected =
            match Backend.search b query with
            | Ok r -> List.length r.Backend.entries
            | Error _ -> 0
          in
          Backend.count_matching b query = expected)
        queries)

(* --- The update log against a subscribed reference ----------------------
   Random adds, modifies, deletes and renames — failed ones included,
   which must log nothing — interleaved with [trim_log] calls and
   durable checkpoint/recover round trips.  A [Backend.subscribe]
   callback keeps the reference: every committed record, minus what
   the trims dropped, with the floor the trims raised.  Commits are
   journaled and trims are not, so a trim is durable from the next
   checkpoint on: recovery brings back the checkpoint's log and every
   commit since.  A Tombstone master reading the same log must count
   exactly the reference's deletes and renames past its one
   session. *)

module Store = Ldap_store
module Master = Ldap_resync.Master

type log_op =
  | Log_add of int
  | Log_delete of int
  | Log_modify of int
  | Log_rename of int * int
  | Log_trim of int  (* trims before [csn - k] *)
  | Log_checkpoint
  | Log_recover

let log_op_to_string = function
  | Log_add i -> Printf.sprintf "add p%d" i
  | Log_delete i -> Printf.sprintf "delete p%d" i
  | Log_modify i -> Printf.sprintf "modify p%d" i
  | Log_rename (i, j) -> Printf.sprintf "rename p%d p%d" i j
  | Log_trim k -> Printf.sprintf "trim csn-%d" k
  | Log_checkpoint -> "checkpoint"
  | Log_recover -> "recover"

let log_op_gen =
  let open QCheck.Gen in
  let i = int_bound 5 in
  frequency
    [
      (3, map (fun i -> Log_add i) i);
      (2, map (fun i -> Log_delete i) i);
      (3, map (fun i -> Log_modify i) i);
      (2, map2 (fun i j -> Log_rename (i, j)) i i);
      (1, map (fun k -> Log_trim k) (int_bound 6));
      (1, return Log_checkpoint);
      (1, return Log_recover);
    ]

type log_world = {
  medium : Store.Medium.t;
  mutable backend : Backend.t;
  mutable journal : Store.Backend_store.t;
  mutable master : Master.t;
  mutable reference : Update.record list;  (* newest first *)
  mutable floor : int;
  mutable checkpointed : Update.record list * int;  (* reference and floor *)
  mutable journaled : Update.record list;  (* commits since, newest first *)
}

let pdn i = dn (Printf.sprintf "cn=p%d,o=xyz" i)

(* What identifies a record across a durable round trip. *)
let describe (r : Update.record) =
  ( Csn.to_int r.Update.csn,
    Update.op_kind_name r.op,
    Dn.canonical (Update.op_target r.op),
    Option.map (fun e -> Dn.canonical (Entry.dn e)) r.after )

let is_tombstone (r : Update.record) =
  match r.Update.op with Update.Delete _ | Update.Modify_dn _ -> true | _ -> false

let follow w =
  Backend.subscribe w.backend (fun r ->
      w.reference <- r :: w.reference;
      w.journaled <- r :: w.journaled)

let log_world () =
  let medium = Store.Medium.memory () in
  let backend = log_backend () in
  (* The context entry is no commit: the first snapshot, which
     opening the empty store writes, carries it. *)
  let journal, _ = must (Store.Backend_store.open_store backend (Store.Store.create medium ~name:"b")) in
  let master = Master.create ~strategy:Master.Tombstone backend in
  ignore (must (Master.open_store master (Store.Store.create medium ~name:"m")));
  let w =
    { medium; backend; journal; master; reference = []; floor = 0; checkpointed = ([], 0);
      journaled = [] }
  in
  follow w;
  for i = 0 to 2 do
    must_apply backend (Update.add (person (Printf.sprintf "p%d" i) "o=xyz" "0"))
  done;
  (* One session, pinned at CSN 3 for the rest of the run. *)
  (match
     Master.handle master { Ldap_resync.Protocol.mode = Ldap_resync.Protocol.Poll; cookie = None }
       (Query.make ~base:(dn "o=xyz") (f "(objectclass=*)"))
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  w

let run_log_op w op =
  let b = w.backend in
  let csn = Csn.to_int (Backend.csn b) in
  match op with
  | Log_add i -> ignore (Backend.apply b (Update.add (person (Printf.sprintf "p%d" i) "o=xyz" "0")))
  | Log_delete i -> ignore (Backend.apply b (Update.delete (pdn i)))
  | Log_modify i ->
      ignore
        (Backend.apply b
           (Update.modify (pdn i) [ Update.replace_values "serialNumber" [ string_of_int csn ] ]))
  | Log_rename (i, j) ->
      ignore (Backend.apply b (Update.modify_dn (pdn i) (rdn (Printf.sprintf "cn=p%d" j))))
  | Log_trim k ->
      let before = max 0 (csn - k) in
      Backend.trim_log b ~before:(Csn.of_int before);
      w.reference <- List.filter (fun (r : Update.record) -> before <= Csn.to_int r.csn) w.reference;
      w.floor <- max w.floor (before - 1)
  | Log_checkpoint ->
      Store.Backend_store.checkpoint w.journal;
      Master.checkpoint w.master;
      w.checkpointed <- (w.reference, w.floor);
      w.journaled <- []
  | Log_recover ->
      (* The restarted pair is created as the first was; the master
         goes first, since restoring the backend notifies nobody. *)
      let backend = Backend.create () in
      let master = Master.create ~strategy:Master.Tombstone backend in
      let journal, _ = must (Store.Backend_store.open_store backend (Store.Store.create w.medium ~name:"b")) in
      ignore (must (Master.open_store master (Store.Store.create w.medium ~name:"m")));
      w.backend <- backend;
      w.reference <- w.journaled @ fst w.checkpointed;
      w.floor <- snd w.checkpointed;
      w.journal <- journal;
      w.master <- master;
      follow w

let log_matches_reference w =
  let b = w.backend in
  let csn = Csn.to_int (Backend.csn b) in
  let oldest_first = List.rev w.reference in
  let since_ok since =
    List.map describe (Backend.log_since b (Csn.of_int since))
    = List.map describe
        (List.filter (fun (r : Update.record) -> since < Csn.to_int r.csn) oldest_first)
    && Backend.log_complete_since b (Csn.of_int since) = (w.floor <= since)
  in
  List.for_all since_ok [ 0; 3; w.floor; w.floor + 1; csn / 2; max 0 (csn - 1); csn ]
  && Csn.to_int (Backend.log_floor b) = w.floor
  && log_length b = List.length w.reference
  && Master.history_size w.master
     = List.length
         (List.filter
            (fun (r : Update.record) -> 3 < Csn.to_int r.csn && is_tombstone r)
            w.reference)

let prop_log_follows_reference =
  QCheck.Test.make ~name:"backend: log = subscribed reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map log_op_to_string ops))
       QCheck.Gen.(list_size (0 -- 40) log_op_gen))
    (fun ops ->
      let w = log_world () in
      List.for_all
        (fun op ->
          run_log_op w op;
          log_matches_reference w)
        ops
      && log_matches_reference w)

let test_log_past_spine_cap () =
  (* Past twice the spine cap the oldest half of the spine goes: the
     floor rises past the dropped records, and nothing keeps them
     alive.  Neither does an explicit trim. *)
  let b = log_backend () in
  let cap = 16_384 (* the content store's spine cap *) in
  let watch = Weak.create 2 in
  let watched slot i =
    match
      Backend.apply b
        (Update.modify (dn "o=xyz") [ Update.replace_values "description" [ string_of_int i ] ])
    with
    | Ok r -> Weak.set watch slot (Some r)
    | Error e -> failwith e
  in
  let last = (2 * cap) + 100 in
  watched 0 1;
  for i = 2 to last - 1 do commit b i done;
  watched 1 last;
  let floor = Csn.to_int (Backend.log_floor b) in
  check_bool "floor rose" true (floor > 0);
  check_bool "incomplete from zero" false (Backend.log_complete_since b Csn.zero);
  check_bool "complete from the floor" true (Backend.log_complete_since b (Backend.log_floor b));
  Alcotest.(check (list int))
    "retained: every record past the floor" (List.init (last - floor) (fun k -> floor + 1 + k))
    (csns (Backend.log_since b Csn.zero));
  check_bool "bounded by the spine" true (log_length b <= 2 * cap);
  Gc.full_major ();
  check_bool "dropped record released" true (Weak.get watch 0 = None);
  check_bool "retained record still held" true (Weak.get watch 1 <> None);
  check_int "still retained" (last - floor) (log_length b);
  (* An explicit trim releases what it drops just the same. *)
  (match Backend.log_since b (Backend.log_floor b) with
  | oldest :: _ -> Weak.set watch 0 (Some oldest)
  | [] -> Alcotest.fail "records retained");
  Backend.trim_log b ~before:(Csn.of_int last);
  Gc.full_major ();
  check_bool "trimmed record released" true (Weak.get watch 0 = None);
  check_int "only the newest left" 1 (log_length b)

let suite =
  [
    Alcotest.test_case "dit basics" `Quick test_dit_basics;
    Alcotest.test_case "add validation" `Quick test_add_validation;
    Alcotest.test_case "naming attr autofill" `Quick test_naming_attr_autofill;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "modify" `Quick test_modify;
    Alcotest.test_case "modify dn" `Quick test_modify_dn;
    Alcotest.test_case "search scopes" `Quick test_search_scopes;
    Alcotest.test_case "indexed vs scan" `Quick test_search_indexed_vs_scan;
    Alcotest.test_case "attribute selection" `Quick test_attribute_selection;
    Alcotest.test_case "count matching" `Quick test_count_matching;
    Alcotest.test_case "update log" `Quick test_log;
    Alcotest.test_case "changelog ring" `Quick test_log_ring;
    Alcotest.test_case "changelog trim to empty" `Quick test_log_trim_to_empty;
    Alcotest.test_case "changelog trim past head" `Quick test_log_trim_past_head;
    Alcotest.test_case "changelog wraparound since floor" `Quick
      test_log_wraparound_since_floor;
    Alcotest.test_case "subscribers" `Quick test_subscribers;
    Alcotest.test_case "many subscribers ordered" `Quick test_many_subscribers_ordered;
    QCheck_alcotest.to_alcotest prop_search_matches_naive;
    Alcotest.test_case "figure 2 round trips" `Quick test_figure2_round_trips;
    Alcotest.test_case "figure 2 no chase" `Quick test_figure2_no_chase;
    Alcotest.test_case "base referral" `Quick test_base_referral;
    QCheck_alcotest.to_alcotest prop_postings_follow_modifies;
    QCheck_alcotest.to_alcotest prop_post_image;
    Alcotest.test_case "integer spellings" `Quick test_integer_spellings;
    QCheck_alcotest.to_alcotest prop_count_is_search_length;
    QCheck_alcotest.to_alcotest prop_log_follows_reference;
    Alcotest.test_case "log past twice the spine cap" `Quick test_log_past_spine_cap;
    Alcotest.test_case "count matching: contexts, referrals" `Quick
      test_count_matching_contexts_referrals;
  ]
