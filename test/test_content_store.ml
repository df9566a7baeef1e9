(* Tests for the DN-keyed content store: slot/tombstone accounting,
   change-spine enumeration (dedup, ordering, trim-forced rescan), CSN
   stamping, and a randomized catch-up property: an old snapshot plus
   the DNs of [changes_since] always reconciles to the current
   content, or is told to rescan — never served a silent gap. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

let entry name v =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ v ]) ]

let dns_of = List.map (fun d -> Dn.canonical d)

let test_upsert_find_remove () =
  let s = Content_store.create () in
  check_int "empty" 0 (Content_store.size s);
  Content_store.upsert s (entry "a" "1");
  Content_store.upsert s (entry "b" "1");
  check_int "two live" 2 (Content_store.size s);
  check_bool "mem" true (Content_store.mem s (dn "cn=a,o=xyz"));
  (* Replacement keeps one slot and returns the latest image. *)
  Content_store.upsert s (entry "a" "2");
  check_int "still two" 2 (Content_store.size s);
  check_int "two slots" 2 (Content_store.interned s);
  (match Content_store.find s (dn "cn=a,o=xyz") with
  | Some e -> check_bool "latest image" true (Entry.equal e (entry "a" "2"))
  | None -> Alcotest.fail "lost entry a");
  (* Removal tombstones the slot: size drops, interned does not. *)
  Content_store.remove s (dn "cn=a,o=xyz");
  check_int "one live" 1 (Content_store.size s);
  check_int "slot survives" 2 (Content_store.interned s);
  check_bool "gone" true (Content_store.find s (dn "cn=a,o=xyz") = None);
  let a_id = Option.get (Content_store.id_of s (dn "cn=a,o=xyz")) in
  check_bool "tombstone empty by id" true (Content_store.get s a_id = None);
  (* Removing an absent DN is a no-op and records no event. *)
  let r = Content_store.rev s in
  Content_store.remove s (dn "cn=zz,o=xyz");
  check_int "no event for absent dn" r (Content_store.rev s);
  (* Revival reuses the DN; the store holds it once. *)
  Content_store.upsert s (entry "a" "3");
  check_int "revived" 2 (Content_store.size s);
  check_bool "revival keeps the slot id" true
    (Content_store.id_of s (dn "cn=a,o=xyz") = Some a_id
    && Content_store.get s a_id <> None);
  check_int "revived once" 2
    (List.length
       (List.filter
          (fun e -> Dn.equal (Entry.dn e) (dn "cn=a,o=xyz") || Dn.equal (Entry.dn e) (dn "cn=b,o=xyz"))
          (Content_store.to_list s)))

let test_iteration_order () =
  let s = Content_store.create () in
  List.iter (fun n -> Content_store.upsert s (entry n "1")) [ "c"; "a"; "b" ];
  Content_store.remove s (dn "cn=a,o=xyz");
  let names e = List.hd (Entry.get e "cn") in
  check_bool "seq skips tombstones, keeps insertion order" true
    (List.map names (List.of_seq (Content_store.to_seq s)) = [ "c"; "b" ]);
  check_bool "fold agrees with seq" true
    (Content_store.fold s ~init:[] ~f:(fun acc e -> names e :: acc)
    = [ "b"; "c" ])

let test_changes_since () =
  let s = Content_store.create () in
  Content_store.upsert s (entry "a" "1");
  Content_store.upsert s (entry "b" "1");
  let r = Content_store.rev s in
  check_bool "nothing changed yet" true (Content_store.changes_since s r = Some []);
  (* Two touches of one DN dedup to a single element, oldest-first by
     first occurrence. *)
  Content_store.upsert s (entry "c" "1");
  Content_store.upsert s (entry "a" "2");
  Content_store.upsert s (entry "c" "2");
  (match Content_store.changes_since s r with
  | Some l ->
      check_bool "deduped oldest-first" true
        (dns_of l = [ "cn=c,o=xyz"; "cn=a,o=xyz" ])
  | None -> Alcotest.fail "spine should cover r");
  (* Deletes are events too. *)
  Content_store.remove s (dn "cn=b,o=xyz");
  (match Content_store.changes_since s r with
  | Some l -> check_int "delete recorded" 3 (List.length l)
  | None -> Alcotest.fail "spine should cover r");
  check_bool "from the head: empty" true
    (Content_store.changes_since s (Content_store.rev s) = Some [])

let test_trim_and_rescan () =
  let s = Content_store.create ~spine_cap:8 () in
  for i = 1 to 40 do
    Content_store.upsert s (entry (Printf.sprintf "e%d" i) "1")
  done;
  check_int "rev counts every event" 40 (Content_store.rev s);
  check_bool "spine bounded by 2*cap" true (Content_store.spine_length s <= 16);
  check_bool "floor advanced" true (Content_store.floor s > 0);
  check_bool "pre-floor cursor must rescan" true
    (Content_store.changes_since s 0 = None);
  (match Content_store.changes_since s (Content_store.floor s) with
  | Some l ->
      check_int "covered tail enumerates" (40 - Content_store.floor s)
        (List.length l)
  | None -> Alcotest.fail "floor itself is covered");
  Content_store.trim_spine s ~keep:3;
  check_int "explicit trim" 3 (Content_store.spine_length s);
  check_bool "older cursor now rescans" true
    (Content_store.changes_since s (40 - 4) = None)

let test_csn_stamps () =
  let s = Content_store.create () in
  check_bool "empty range" true (Content_store.spine_csn_range s = None);
  let commit csn op =
    Content_store.attach s { Update.csn = Csn.of_int csn; op; before = None; after = None }
  in
  Content_store.upsert s (entry "a" "1");
  commit 5 (Update.add (entry "a" "1"));
  Content_store.upsert s (entry "b" "1");
  commit 9 (Update.add (entry "b" "1"));
  Content_store.upsert s (entry "c" "1");
  Content_store.remove s (dn "cn=a,o=xyz");
  commit 12 (Update.delete (dn "cn=a,o=xyz"));
  check_int "records" 3 (Content_store.log_length s);
  check_bool "one record per event" true
    (match commit 13 (Update.delete (dn "cn=b,o=xyz")) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (match Content_store.spine_csn_range s with
  | Some (lo, hi) ->
      check_int "oldest stamp" 5 (Csn.to_int lo);
      check_int "newest stamp" 12 (Csn.to_int hi)
  | None -> Alcotest.fail "stamped spine has a range");
  check_bool "footprint positive" true (Content_store.approx_bytes s > 0)

(* --- Randomized catch-up property -------------------------------------

   Model the store as a plain (name -> value) map.  At a random point a
   cursor snapshots the map and records the revision; after more random
   ops it catches up: [changes_since] either lists the DNs to re-read
   (patching the snapshot from the live store must reproduce the
   current model exactly) or demands a rescan — and it may only demand
   a rescan when the spine really was trimmed past the cursor. *)

type cs_op = Cs_put of int * int | Cs_del of int

let cs_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i v -> Cs_put (i, v)) (0 -- 12) (0 -- 5));
        (2, map (fun i -> Cs_del i) (0 -- 12));
      ])

let cs_print = function
  | Cs_put (i, v) -> Printf.sprintf "put(%d,%d)" i v
  | Cs_del i -> Printf.sprintf "del(%d)" i

let name_of i = Printf.sprintf "e%d" i
let dn_of i = dn (Printf.sprintf "cn=%s,o=xyz" (name_of i))
let key_of i = Dn.canonical (dn_of i)

let run_catch_up (cap, before, after) =
  let s = Content_store.create ~spine_cap:cap () in
  let model = Hashtbl.create 16 in
  let apply op =
    match op with
    | Cs_put (i, v) ->
        Hashtbl.replace model (key_of i) v;
        Content_store.upsert s (entry (name_of i) (string_of_int v))
    | Cs_del i ->
        Hashtbl.remove model (key_of i);
        Content_store.remove s (dn_of i)
  in
  List.iter apply before;
  let snapshot = Hashtbl.copy model in
  let cursor = Content_store.rev s in
  List.iter apply after;
  (match Content_store.changes_since s cursor with
  | None ->
      if Content_store.floor s <= cursor then
        QCheck.Test.fail_reportf
          "rescan demanded but spine covers the cursor (floor %d, cursor %d)"
          (Content_store.floor s) cursor
  | Some changed ->
      List.iter
        (fun d ->
          let key = Dn.canonical d in
          match Content_store.find s d with
          | Some e -> Hashtbl.replace snapshot key (int_of_string (List.hd (Entry.get e "sn")))
          | None -> Hashtbl.remove snapshot key)
        changed;
      let dump h =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
      in
      if dump snapshot <> dump model then
        QCheck.Test.fail_reportf "catch-up diverged from model");
  (* The store itself always matches the model. *)
  Content_store.size s = Hashtbl.length model

let catch_up_test =
  QCheck.Test.make ~count:200 ~name:"content-store: snapshot + changes_since = current"
    (QCheck.make
       ~print:(fun (cap, before, after) ->
         Printf.sprintf "cap=%d before=[%s] after=[%s]" cap
           (String.concat " " (List.map cs_print before))
           (String.concat " " (List.map cs_print after)))
       QCheck.Gen.(
         triple (2 -- 20) (list_size (0 -- 30) cs_gen) (list_size (0 -- 30) cs_gen)))
    run_catch_up

let suite =
  [
    Alcotest.test_case "upsert/find/remove/revive" `Quick test_upsert_find_remove;
    Alcotest.test_case "iteration order" `Quick test_iteration_order;
    Alcotest.test_case "changes_since dedups in order" `Quick test_changes_since;
    Alcotest.test_case "trim forces rescan" `Quick test_trim_and_rescan;
    Alcotest.test_case "csn stamps" `Quick test_csn_stamps;
    QCheck_alcotest.to_alcotest catch_up_test;
  ]
