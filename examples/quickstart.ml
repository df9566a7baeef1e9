(* Quickstart: build a tiny directory, search it, check query
   containment, and stand up a filter-based replica that stays in sync
   with the master through the ReSync protocol.

   Run with: dune exec examples/quickstart.exe *)

open Ldap
module C = Ldap_containment
module Resync = Ldap_resync
module Replication = Ldap_replication

let dn = Dn.of_string_exn
let filter = Filter.of_string_exn

let must = function Ok x -> x | Error e -> failwith e

let () =
  (* 1. A master server with a handful of entries. *)
  let master_backend = Backend.create ~indexed:[ "sn"; "departmentnumber" ] () in
  must
    (Backend.add_context master_backend
       (Entry.make (dn "o=example") [ ("objectclass", [ "organization" ]); ("o", [ "example" ]) ]));
  let add name dept phone =
    let e =
      Entry.make
        (dn (Printf.sprintf "cn=%s,o=example" name))
        [
          ("objectclass", [ "inetOrgPerson" ]);
          ("cn", [ name ]);
          ("sn", [ List.hd (List.rev (String.split_on_char ' ' name)) ]);
          ("departmentNumber", [ dept ]);
          ("telephoneNumber", [ phone ]);
        ]
    in
    ignore (must (Backend.apply master_backend (Update.add e)))
  in
  add "John Doe" "2406" "555-0101";
  add "Jane Doe" "2406" "555-0102";
  add "Carl Miller" "2407" "555-0103";
  add "Asha Patel" "2501" "555-0104";

  (* 2. Search it. *)
  let q = Query.make ~base:(dn "o=example") (filter "(sn=doe)") in
  let { Backend.entries; _ } = must (Result.map_error (fun _ -> "search failed") (Backend.search master_backend q)) in
  Printf.printf "search (sn=doe): %d entries\n" (List.length entries);

  (* 3. Query containment (section 4 of the paper). *)
  let stored = Query.make ~base:(dn "o=example") (filter "(departmentNumber=24*)") in
  let incoming = Query.make ~base:(dn "o=example") (filter "(&(departmentNumber=2406)(sn=doe))") in
  Printf.printf "containment: %b\n"
    (C.Query_containment.contained ~query:incoming ~stored);

  (* 4. A filter-based replica of department block 24*, reaching the
     master over a simulated network. *)
  let master = Resync.Master.create master_backend in
  let transport = Resync.Transport.create (Network.create ()) in
  Resync.Transport.add_master transport ~name:"master" master;
  let replica = Replication.Filter_replica.create_over transport ~master_host:"master" in
  must (Replication.Filter_replica.install_filter replica stored);
  Printf.printf "replica holds %d entries for %d filter(s)\n"
    (Replication.Filter_replica.size_entries replica)
    (List.length (Replication.Filter_replica.stored_filters replica));

  (* 5. The replica answers contained queries locally... *)
  (match Replication.Filter_replica.answer replica incoming with
  | Replication.Replica.Answered results ->
      Printf.printf "replica answered locally with %d entries\n" (List.length results)
  | Replication.Replica.Referral -> print_endline "unexpected referral");

  (* ...and refers queries it cannot guarantee to answer. *)
  let outside = Query.make ~base:(dn "o=example") (filter "(departmentNumber=2501)") in
  (match Replication.Filter_replica.answer replica outside with
  | Replication.Replica.Answered _ -> print_endline "unexpected local answer"
  | Replication.Replica.Referral -> print_endline "out-of-filter query generated a referral");

  (* 6. Updates at the master flow to the replica on the next poll. *)
  ignore
    (must
       (Backend.apply master_backend
          (Update.modify (dn "cn=John Doe,o=example")
             [ Update.replace_values "telephoneNumber" [ "555-9999" ] ])));
  Replication.Filter_replica.sync replica;
  (match Replication.Filter_replica.answer replica incoming with
  | Replication.Replica.Answered results ->
      List.iter
        (fun e ->
          if Entry.has_value e "cn" "John Doe" then
            Printf.printf "after sync, John's phone at the replica: %s\n"
              (String.concat "," (Entry.get e "telephonenumber")))
        results
  | Replication.Replica.Referral -> print_endline "unexpected referral");
  Printf.printf "sync traffic so far: %d entries\n"
    (Replication.Filter_replica.stats replica).Replication.Stats.sync_entries
