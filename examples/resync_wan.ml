(* ReSync over a WAN: the full protocol lifecycle.

   A branch replica keeps the content of one filter synchronized with
   headquarters across four phases:
     1. initial poll (full content),
     2. incremental polls replaying session history,
     3. a persistent (notification) phase,
     4. recovery through the degraded mode of eq. (3) after the master
        expires the session — no full reload needed.

   Run with: dune exec examples/resync_wan.exe *)

open Ldap
module Resync = Ldap_resync

let dn = Dn.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

let show_reply phase (reply : Resync.Protocol.reply) =
  let kind =
    match reply.Resync.Protocol.kind with
    | Resync.Protocol.Initial_content -> "initial"
    | Resync.Protocol.Incremental -> "incremental"
    | Resync.Protocol.Degraded -> "degraded"
  in
  Printf.printf "%-38s %-11s %2d actions, %2d full entries\n" phase kind
    (Resync.Protocol.actions_count reply)
    (Resync.Protocol.entries_cost reply)

let () =
  (* Headquarters master. *)
  let backend = Backend.create ~indexed:[ "departmentnumber" ] () in
  must
    (Backend.add_context backend
       (Entry.make (dn "o=hq") [ ("objectclass", [ "organization" ]); ("o", [ "hq" ]) ]));
  let apply op = ignore (must (Backend.apply backend op)) in
  let person name dept =
    Entry.make
      (dn (Printf.sprintf "cn=%s,o=hq" name))
      [
        ("objectclass", [ "inetOrgPerson" ]); ("cn", [ name ]); ("sn", [ name ]);
        ("departmentNumber", [ dept ]);
      ]
  in
  for i = 1 to 6 do
    apply (Update.add (person (Printf.sprintf "emp%d" i) (if i <= 4 then "sales" else "eng")))
  done;
  let master = Resync.Master.create backend in

  (* Branch consumer for the sales department. *)
  let query =
    Query.make ~base:(dn "o=hq") (Filter.of_string_exn "(departmentNumber=sales)")
  in
  let consumer = Resync.Consumer.create query in

  (* Phase 1: initial content. *)
  show_reply "poll #1 (no cookie)" (must (Resync.Consumer.sync consumer master));
  Printf.printf "  branch now holds %d sales entries\n\n" (Resync.Consumer.size consumer);

  (* Phase 2: normal life — hires, departures, transfers. *)
  apply (Update.add (person "emp7" "sales"));
  apply (Update.modify (dn "cn=emp1,o=hq") [ Update.replace_values "departmentNumber" [ "eng" ] ]);
  apply (Update.delete (dn "cn=emp2,o=hq"));
  apply (Update.modify (dn "cn=emp3,o=hq") [ Update.replace_values "telephoneNumber" [ "555-1234" ] ]);
  show_reply "poll #2 (session history replay)" (must (Resync.Consumer.sync consumer master));
  Printf.printf "  branch now holds %d sales entries\n\n" (Resync.Consumer.size consumer);

  (* Phase 3: switch to persistent notifications, routed through the
     same transport abstraction as every poll. *)
  let transport = Resync.Transport.loopback master in
  let pushed = ref 0 in
  (match
     Resync.Consumer.connect_persist consumer transport
       ~host:Resync.Transport.loopback_host
       ~observe:(fun _ -> incr pushed)
   with
  | Ok _ -> ()
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  apply (Update.add (person "emp8" "sales"));
  apply (Update.delete (dn "cn=emp8,o=hq"));
  apply (Update.add (person "emp9" "sales"));
  Printf.printf "persist phase: %d notifications pushed live\n" !pushed;
  Printf.printf "  branch now holds %d sales entries\n\n" (Resync.Consumer.size consumer);

  (* Phase 4: the master expires idle sessions; the stale cookie falls
     back to the degraded mode — retain actions instead of a reload. *)
  Resync.Server.abandon (Resync.Master.server master)
    ~cookie:(Option.get (Resync.Consumer.cookie consumer));
  apply (Update.modify (dn "cn=emp3,o=hq") [ Update.replace_values "telephoneNumber" [ "555-5678" ] ]);
  apply (Update.modify (dn "cn=emp4,o=hq") [ Update.replace_values "departmentNumber" [ "eng" ] ]);
  show_reply "poll #3 (stale cookie -> degraded)" (must (Resync.Consumer.sync consumer master));
  Printf.printf "  branch now holds %d sales entries\n\n" (Resync.Consumer.size consumer);

  (* Convergence check against the master's actual content. *)
  let expected = Resync.Content.current_dns backend query in
  assert (Dn.Set.equal expected (Resync.Consumer.dns consumer));
  print_endline "converged: branch content equals the master's content."
