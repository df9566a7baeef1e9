(* Tests for the durable store: CRC framing, WAL recovery and
   truncation, atomic snapshots, the generation guard tying them
   together, and the fault-injectable medium's crash semantics.  The
   QCheck properties pin the two recovery invariants down: every
   record written round-trips, and every byte-prefix of a valid log
   recovers without raising to a prefix of its records. *)
module Store = Ldap_store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string_list = Alcotest.(check (list string))

let write_file m ~name s =
  Store.Medium.write_atomic_sub m ~name (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let write_snapshot m ~name payload =
  Store.Snapshot.write_w m ~name (fun w -> Ldap_compile.Wbuf.prepend_string w payload)

(* --- CRC-32 ----------------------------------------------------------- *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  check_int "check value" 0xCBF43926 (Store.Crc32.string "123456789");
  check_int "empty string" 0 (Store.Crc32.string "");
  check_int "sub matches whole" (Store.Crc32.string "456")
    (Store.Crc32.sub "123456789" ~pos:3 ~len:3);
  check_bool "single bit flips the sum" true
    (Store.Crc32.string "hello" <> Store.Crc32.string "hellp")

(* --- WAL framing ------------------------------------------------------ *)

(* String payloads through the writer API. *)
let payload p w = Ldap_compile.Wbuf.prepend_string w p
let wal_append m ~name p = Store.Wal.append_w m ~name (payload p)
let append s p = Store.Store.append_w s (payload p)
let checkpoint s p = Store.Store.checkpoint_w s (payload p)

let test_wal_round_trip () =
  let m = Store.Medium.memory () in
  let payloads = [ "alpha"; ""; "beta\x00binary\xff"; String.make 300 'x' ] in
  List.iter (wal_append m ~name:"log") payloads;
  let r = Store.Wal.recover m ~name:"log" in
  check_string_list "payloads back, oldest first" payloads r.Store.Wal.records;
  check_bool "clean log" false r.Store.Wal.truncated;
  check_int "valid_len is the file length" (Store.Medium.size m ~name:"log")
    r.Store.Wal.valid_len

let test_wal_torn_tail_truncates () =
  let m = Store.Medium.memory () in
  wal_append m ~name:"log" "first";
  wal_append m ~name:"log" "second";
  let good_len = Store.Medium.size m ~name:"log" in
  (* A torn third record: frame header promising more bytes than the
     file holds. *)
  Store.Medium.append m ~name:"log" "\xd1\x00\x00\x00\x20gar";
  Store.Medium.sync m ~name:"log";
  let r = Store.Wal.recover m ~name:"log" in
  check_string_list "whole records survive" [ "first"; "second" ]
    r.Store.Wal.records;
  check_bool "tail reported torn" true r.Store.Wal.truncated;
  check_int "truncated back to the last whole record" good_len
    r.Store.Wal.valid_len;
  check_int "medium file physically cut" good_len
    (Store.Medium.size m ~name:"log");
  (* Appends continue from the clean boundary. *)
  wal_append m ~name:"log" "third";
  let r2 = Store.Wal.recover m ~name:"log" in
  check_string_list "log continues after truncation"
    [ "first"; "second"; "third" ]
    r2.Store.Wal.records;
  check_bool "second recovery is clean" false r2.Store.Wal.truncated

let test_wal_corrupt_byte_truncates () =
  let m = Store.Medium.memory () in
  wal_append m ~name:"log" "first";
  let good_len = Store.Medium.size m ~name:"log" in
  wal_append m ~name:"log" "second";
  (* Flip one payload byte of the second record: its CRC now fails, so
     replay must stop after the first. *)
  let bytes = Bytes.of_string (Option.get (Store.Medium.read m ~name:"log")) in
  Bytes.set bytes (Bytes.length bytes - 1) '!';
  Store.Medium.truncate m ~name:"log" 0;
  Store.Medium.append m ~name:"log" (Bytes.to_string bytes);
  Store.Medium.sync m ~name:"log";
  let r = Store.Wal.recover m ~name:"log" in
  check_string_list "replay stops before the corrupt record" [ "first" ]
    r.Store.Wal.records;
  check_bool "corruption reported" true r.Store.Wal.truncated;
  check_int "cut back to the last good record" good_len r.Store.Wal.valid_len

(* --- Snapshots -------------------------------------------------------- *)

let test_snapshot_round_trip () =
  let m = Store.Medium.memory () in
  write_snapshot m ~name:"snap" "state one";
  Alcotest.(check (option string))
    "payload back" (Some "state one")
    (Store.Snapshot.read m ~name:"snap");
  write_snapshot m ~name:"snap" "state two";
  Alcotest.(check (option string))
    "replaced atomically" (Some "state two")
    (Store.Snapshot.read m ~name:"snap");
  Alcotest.(check (option string))
    "missing file" None
    (Store.Snapshot.read m ~name:"absent")

let test_snapshot_corruption_detected () =
  let m = Store.Medium.memory () in
  write_snapshot m ~name:"snap" "precious";
  let bytes = Bytes.of_string (Option.get (Store.Medium.read m ~name:"snap")) in
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  Store.Medium.truncate m ~name:"snap" 0;
  Store.Medium.append m ~name:"snap" (Bytes.to_string bytes);
  Alcotest.(check (option string))
    "checksum mismatch rejected" None
    (Store.Snapshot.read m ~name:"snap")

(* --- Medium crash semantics ------------------------------------------- *)

let test_crash_lose_unsynced () =
  let m = Store.Medium.memory () in
  Store.Medium.append m ~name:"f" "synced";
  Store.Medium.sync m ~name:"f";
  Store.Medium.append m ~name:"f" " and not";
  Store.Medium.crash m;
  Alcotest.(check (option string))
    "only the synced prefix survives" (Some "synced")
    (Store.Medium.read m ~name:"f")

let test_crash_scripted_outcomes () =
  let faults = Store.Medium.Faults.create () in
  let m = Store.Medium.memory ~faults () in
  Store.Medium.append m ~name:"f" "synced|";
  Store.Medium.sync m ~name:"f";
  Store.Medium.append m ~name:"f" "unsynced tail";
  Store.Medium.Faults.script faults [ Store.Medium.Faults.Keep_all ];
  Store.Medium.crash m;
  Alcotest.(check (option string))
    "Keep_all keeps everything" (Some "synced|unsynced tail")
    (Store.Medium.read m ~name:"f");
  (* Now the whole file is considered synced (it survived), so tear a
     fresh unsynced append. *)
  Store.Medium.append m ~name:"f" "!second tail";
  Store.Medium.Faults.script faults [ Store.Medium.Faults.Torn_tail ];
  Store.Medium.crash m;
  let survived = Option.get (Store.Medium.read m ~name:"f") in
  let base = "synced|unsynced tail" in
  check_bool "torn tail keeps a strict prefix of the unsynced append" true
    (String.length survived >= String.length base
    && String.length survived < String.length base + String.length "!second tail"
    && String.sub survived 0 (String.length base) = base)

let test_write_atomic_survives_crash () =
  let m = Store.Medium.memory () in
  write_file m ~name:"f" "whole image";
  Store.Medium.crash m;
  Alcotest.(check (option string))
    "atomic write is durable without an explicit sync" (Some "whole image")
    (Store.Medium.read m ~name:"f")

(* --- Store: snapshot + WAL + generation guard ------------------------- *)

let test_store_checkpoint_and_replay () =
  let m = Store.Medium.memory () in
  let s = Store.Store.create m ~name:"acct" in
  append s "r1";
  append s "r2";
  checkpoint s "state@2";
  append s "r3";
  let r = Store.Store.recover s in
  Alcotest.(check (option string))
    "snapshot from the checkpoint" (Some "state@2") r.Store.Store.snapshot;
  check_string_list "only post-checkpoint records replay" [ "r3" ]
    r.Store.Store.records;
  check_bool "clean" false r.Store.Store.truncated;
  check_int "no stale records" 0 r.Store.Store.stale

let test_store_generation_guard () =
  let m = Store.Medium.memory () in
  let s = Store.Store.create m ~name:"acct" in
  append s "old1";
  append s "old2";
  let stale_wal = Option.get (Store.Medium.read m ~name:"acct.wal") in
  checkpoint s "new state";
  (* Simulate the crash window between snapshot install and WAL reset:
     the WAL still holds the previous generation's log. *)
  Store.Medium.truncate m ~name:"acct.wal" 0;
  Store.Medium.append m ~name:"acct.wal" stale_wal;
  Store.Medium.sync m ~name:"acct.wal";
  let r = Store.Store.recover (Store.Store.create m ~name:"acct") in
  Alcotest.(check (option string))
    "newer snapshot wins" (Some "new state") r.Store.Store.snapshot;
  check_string_list "stale-generation records not replayed" []
    r.Store.Store.records;
  check_int "both stale records counted" 2 r.Store.Store.stale

let test_store_destroy () =
  let m = Store.Medium.memory () in
  let s = Store.Store.create m ~name:"acct" in
  append s "r1";
  checkpoint s "state";
  let files () = List.filter (fun name -> Store.Medium.read m ~name <> None) [ "acct.snap"; "acct.wal" ] in
  check_string_list "durable state present" [ "acct.snap"; "acct.wal" ] (files ());
  Store.Store.destroy s;
  check_string_list "all files gone" [] (files ())

(* --- Properties ------------------------------------------------------- *)

let payload_gen =
  (* Arbitrary bytes, including empties, NULs and the frame magic. *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))

let payloads_arb =
  QCheck.make
    ~print:(fun ps -> String.concat "," (List.map String.escaped ps))
    QCheck.Gen.(list_size (int_bound 12) payload_gen)

let prop_wal_round_trip =
  QCheck.Test.make ~name:"store: wal record round trip" ~count:300 payloads_arb
    (fun payloads ->
      let m = Store.Medium.memory () in
      List.iter (wal_append m ~name:"log") payloads;
      let r = Store.Wal.recover m ~name:"log" in
      r.Store.Wal.records = payloads && not r.Store.Wal.truncated)

let prop_every_prefix_recovers =
  QCheck.Test.make ~name:"store: every wal prefix recovers" ~count:100
    payloads_arb (fun payloads ->
      let m = Store.Medium.memory () in
      List.iter (wal_append m ~name:"log") payloads;
      let file =
        match Store.Medium.read m ~name:"log" with Some s -> s | None -> ""
      in
      let ok = ref true in
      for cut = 0 to String.length file do
        let m2 = Store.Medium.memory () in
        Store.Medium.append m2 ~name:"log" (String.sub file 0 cut);
        Store.Medium.sync m2 ~name:"log";
        let r = Store.Wal.recover m2 ~name:"log" in
        (* The records of any byte-prefix are a prefix of the original
           records, and replay stops exactly at a record boundary. *)
        let n = List.length r.Store.Wal.records in
        if
          n > List.length payloads
          || r.Store.Wal.records <> List.filteri (fun i _ -> i < n) payloads
          || r.Store.Wal.valid_len > cut
        then ok := false
      done;
      !ok)

(* --- Slicing-by-8 CRC, parent images, unsynced appends ---------------- *)

(* The bytewise table-driven CRC-32 the slicing-by-8 loop replaced,
   kept as its oracle. *)
let crc32_bytewise s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let prop_crc32_slicing =
  QCheck.Test.make ~name:"store: slicing-by-8 crc32 = bytewise" ~count:300
    (QCheck.make
       ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (0 -- 300)))
    (fun s ->
      let n = String.length s in
      Store.Crc32.string s = crc32_bytewise s ~pos:0 ~len:n
      && List.for_all
           (fun pos ->
             pos > n
             ||
             let len = n - pos in
             let expected = crc32_bytewise s ~pos ~len in
             Store.Crc32.sub s ~pos ~len = expected
             && Store.Crc32.bytes_sub (Bytes.of_string s) ~pos ~len = expected
             && (len = 0
                || Store.Crc32.sub s ~pos ~len:(len - 1)
                   = crc32_bytewise s ~pos ~len:(len - 1)))
           (List.init 10 Fun.id))

let pattern n = String.init n (fun i -> Char.chr (((i * 7) + 3) land 0xff))

(* Files a store wrote before the snapshot writer and the CRC changed,
   for the script in [fixed_store_script]: the log after a string
   checkpoint and two appends (one of them zero-copy), then the
   snapshot of a 200-byte writer checkpoint and the log after one more
   append. *)
let fixed_wal_gen1 =
  "\xd1\x00\x00\x00\x03\x92\xd9\x0c\xab\x02\x01\x01"
  ^ "\xd1\x00\x00\x00\x28\xe7\x30\xb7\xea" ^ pattern 40
  ^ "\xd1\x00\x00\x00\x02\xe3\x00\x68\x9dr3"

let fixed_snap_gen2 =
  "SNP1\x83\xd0\x4c\xd7\x02\x01\x02\x04\x81\xc8" ^ pattern 200

let fixed_wal_gen2 =
  "\xd1\x00\x00\x00\x03\x0b\xd0\x5d\x11\x02\x01\x02"
  ^ "\xd1\x00\x00\x00\x02\x7d\x64\xfd\x3e\x72\x34"

let test_fixed_images () =
  let file m name = Option.get (Store.Medium.read m ~name) in
  (* Written now: byte-identical to the fixed files. *)
  let m = Store.Medium.memory () in
  let s = Store.Store.create m ~name:"fx" in
  append s "r1";
  checkpoint s "state@1";
  append s (pattern 40);
  Store.Store.append_w s (fun w -> Ldap_compile.Wbuf.prepend_string w "r3");
  Alcotest.(check string) "log, generation 1" fixed_wal_gen1 (file m "fx.wal");
  Store.Store.checkpoint_w s (fun w -> Ldap_compile.Wbuf.prepend_string w (pattern 200));
  append s "r4";
  Alcotest.(check string) "snapshot, generation 2" fixed_snap_gen2 (file m "fx.snap");
  Alcotest.(check string) "log, generation 2" fixed_wal_gen2 (file m "fx.wal");
  (* Read back: the fixed files recover. *)
  let r = Store.Wal.recover (
    let m = Store.Medium.memory () in
    write_file m ~name:"log" fixed_wal_gen1;
    m) ~name:"log" in
  check_string_list "generation 1 records" [ "\x02\x01\x01"; pattern 40; "r3" ]
    r.Store.Wal.records;
  let m = Store.Medium.memory () in
  write_file m ~name:"fx.snap" fixed_snap_gen2;
  write_file m ~name:"fx.wal" fixed_wal_gen2;
  let r = Store.Store.recover (Store.Store.create m ~name:"fx") in
  Alcotest.(check (option string)) "snapshot payload" (Some (pattern 200))
    r.Store.Store.snapshot;
  check_string_list "records after the snapshot" [ "r4" ] r.Store.Store.records;
  check_bool "clean" false r.Store.Store.truncated

let test_many_unsynced_appends () =
  let base = "synced|" in
  let first = "0123456789" in
  let setup ?roll outcome =
    let faults = Store.Medium.Faults.create ?roll () in
    let m = Store.Medium.memory ~faults () in
    Store.Medium.append m ~name:"f" base;
    Store.Medium.sync m ~name:"f";
    Store.Medium.append_sub m ~name:"f" (Bytes.of_string first) ~pos:0
      ~len:(String.length first);
    for i = 1 to 999 do
      if i mod 2 = 0 then Store.Medium.append m ~name:"f" "tail"
      else Store.Medium.append_sub m ~name:"f" (Bytes.of_string "xtailx") ~pos:1 ~len:4
    done;
    Store.Medium.Faults.script faults [ outcome ];
    Store.Medium.crash m;
    Option.get (Store.Medium.read m ~name:"f")
  in
  Alcotest.(check string) "lose_unsynced drops all 1,000" base
    (setup Store.Medium.Faults.Lose_unsynced);
  (* Without a roll the tear keeps half of the first append; with one
     it keeps 1 + roll * (len - 2) bytes of it. *)
  Alcotest.(check string) "torn tail tears inside the first append"
    (base ^ String.sub first 0 5)
    (setup Store.Medium.Faults.Torn_tail);
  Alcotest.(check string) "rolled torn tail tears inside the first append"
    (base ^ String.sub first 0 3)
    (setup ~roll:(fun () -> 0.25) Store.Medium.Faults.Torn_tail);
  Alcotest.(check string) "keep_all keeps all 1,000"
    (base ^ first ^ String.concat "" (List.init 999 (fun _ -> "tail")))
    (setup Store.Medium.Faults.Keep_all)

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "wal round trip" `Quick test_wal_round_trip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail_truncates;
    Alcotest.test_case "wal corrupt byte" `Quick test_wal_corrupt_byte_truncates;
    Alcotest.test_case "snapshot round trip" `Quick test_snapshot_round_trip;
    Alcotest.test_case "snapshot corruption" `Quick test_snapshot_corruption_detected;
    Alcotest.test_case "crash loses unsynced" `Quick test_crash_lose_unsynced;
    Alcotest.test_case "crash scripted outcomes" `Quick test_crash_scripted_outcomes;
    Alcotest.test_case "write_atomic durable" `Quick test_write_atomic_survives_crash;
    Alcotest.test_case "store checkpoint+replay" `Quick test_store_checkpoint_and_replay;
    Alcotest.test_case "store generation guard" `Quick test_store_generation_guard;
    Alcotest.test_case "store destroy" `Quick test_store_destroy;
    QCheck_alcotest.to_alcotest prop_wal_round_trip;
    QCheck_alcotest.to_alcotest prop_every_prefix_recovers;
    QCheck_alcotest.to_alcotest prop_crc32_slicing;
    Alcotest.test_case "parent images recover" `Quick test_fixed_images;
    Alcotest.test_case "1,000 unsynced appends" `Quick test_many_unsynced_appends;
  ]
