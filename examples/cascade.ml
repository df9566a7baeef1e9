(* Cascading replication: filter replicas as intermediate masters.

   A headquarters master feeds two regional nodes; branch replicas
   subscribe to the nearest node instead of headquarters.  The walk
   shows the three properties the topology layer exists for:
     1. admission by containment — a subscription a node's covers
        cannot answer is refused with a referral and the branch chases
        it one tier up;
     2. the root only ever talks to the regional nodes, however many
        branches subscribe below them;
     3. when a regional node dies, its branches re-parent to
        headquarters with a translated cookie and resynchronize
        degraded — content is kept, not reloaded.

   Run with: dune exec examples/cascade.exe *)

open Ldap
module T = Ldap_topology

let dn = Dn.of_string_exn
let f = Filter.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

let () =
  (* Headquarters directory: two departments of consultants. *)
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
  List.iter
    (fun (n, d) -> apply (Update.add (person n d)))
    [ ("ada", "sales"); ("bob", "sales"); ("cleo", "eng"); ("dan", "eng") ];
  let dept d = Query.make ~base:(dn "o=hq") (f (Printf.sprintf "(departmentNumber=%s)" d)) in

  let t = T.Topology.create ~root:"hq" backend in
  (* Two regional nodes, each covering both departments. *)
  let covers = [ dept "sales"; dept "eng" ] in
  let east = must (T.Topology.add_node t ~name:"east" ~parent:"hq" ~covers) in
  let _west = must (T.Topology.add_node t ~name:"west" ~parent:"hq" ~covers) in

  (* Branches subscribe at their region.  The marketing subscription is
     not contained in any cover: east refuses it with a referral and
     the branch lands at headquarters instead. *)
  let b1 = must (T.Topology.add_leaf t ~name:"boston" ~parent:"east" (dept "sales")) in
  let b2 = must (T.Topology.add_leaf t ~name:"berlin" ~parent:"west" (dept "eng")) in
  let b3 = must (T.Topology.add_leaf t ~name:"oslo" ~parent:"east" (dept "marketing")) in
  List.iter
    (fun b -> Printf.printf "%-8s attached to %s\n" (T.Leaf.name b) (T.Leaf.parent b))
    [ b1; b2; b3 ];
  Printf.printf "root sessions: %d (two nodes x two covers + one referred branch)\n\n"
    (Ldap_resync.Master.session_count (T.Topology.master t));

  (* An update converges through the tiers: one round to the nodes,
     another to the branches. *)
  apply (Update.add (person "eve" "sales"));
  (match T.Topology.rounds_to_converge t with
  | Some r -> Printf.printf "new hire visible everywhere after %d poll rounds\n" r
  | None -> print_endline "did not converge");
  Printf.printf "boston sees %d sales people\n\n"
    (List.length (T.Leaf.content b1 (dept "sales")));

  (* Kill the east node mid-stream: boston re-parents to headquarters
     (the grandparent) and resynchronizes degraded — its content
     survives the move. *)
  apply (Update.add (person "finn" "sales"));
  T.Topology.kill_node t east;
  (match T.Topology.rounds_to_converge t with
  | Some r -> Printf.printf "east died: converged again after %d rounds\n" r
  | None -> print_endline "did not converge");
  Printf.printf "boston now attached to %s, %d sales people, %d degraded resync(s)\n"
    (T.Leaf.parent b1)
    (List.length (T.Leaf.content b1 (dept "sales")))
    (T.Leaf.stats b1).Ldap_replication.Stats.resyncs
