(* Tests for the simulated network: referral chasing corner cases,
   loop protection and traffic accounting. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let must = function Ok x -> x | Error e -> failwith e

let entry dn_s attrs = Entry.make (dn dn_s) attrs

(* Registers a full server for [suffix] holding [entries] as host
   [name]. *)
let simple_server net name suffix entries ?default_referral () =
  let b = Backend.create () in
  must (Backend.add_context b (entry suffix [ ("objectclass", [ "organization" ]); ("o", [ "x" ]) ]));
  List.iter (fun e -> ignore (must (Backend.apply b (Update.Add e)))) entries;
  Network.add_handler net ~name (Server.handler ?default_referral b)

let q base = Query.make ~base:(dn base) Filter.tt

let test_unknown_host () =
  let net = Network.create () in
  match Network.search net ~from:"nowhere" (q "o=x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_single_server () =
  let net = Network.create () in
  simple_server net "a" "o=x"
    [ entry "cn=e,o=x" [ ("objectclass", [ "person" ]); ("cn", [ "e" ]); ("sn", [ "e" ]) ] ]
    ();
  (match Network.search net ~from:"a" (q "o=x") with
  | Ok entries -> check_int "entries" 2 (List.length entries)
  | Error e -> Alcotest.fail e);
  let stats = Network.stats net in
  check_int "one round trip" 1 stats.Network.sync_rpcs;
  check_bool "bytes counted" true (stats.Network.bytes > 0);
  check_int "search bytes are exchange bytes" stats.Network.sync_bytes stats.Network.bytes

let test_referral_loop_guard () =
  (* Two servers whose default referrals point at each other: the
     client must terminate rather than bounce forever. *)
  let net = Network.create () in
  simple_server net "a" "o=a" [] ~default_referral:(Referral.make ~host:"b" ()) ();
  simple_server net "b" "o=b" [] ~default_referral:(Referral.make ~host:"a" ()) ();
  match Network.search net ~from:"a" (q "o=zzz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected loop detection failure"

let test_no_superior_fails () =
  let net = Network.create () in
  simple_server net "a" "o=a" [] ();
  match Network.search net ~from:"a" (q "o=other") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected noSuchObject"

let test_stats_reset () =
  let net = Network.create () in
  simple_server net "a" "o=x" [] ();
  ignore (Network.search net ~from:"a" (q "o=x"));
  Network.reset_stats net;
  let stats = Network.stats net in
  check_int "round trips" 0 stats.Network.sync_rpcs;
  check_int "bytes" 0 stats.Network.bytes

let test_overlap_dedupe () =
  (* Two servers reached through a continuation reference both return
     e2: the client must report it once, in first-seen order. *)
  let net = Network.create () in
  let e name = entry (Printf.sprintf "cn=%s,o=x" name) [ ("objectclass", [ "person" ]); ("cn", [ name ]); ("sn", [ name ]) ] in
  Network.add_handler net ~name:"a" (fun _ ->
      Server.Entries
        {
          Backend.entries = [ e "e1"; e "e2" ];
          references = [ [ Referral.make ~host:"b" () ] ];
        });
  Network.add_handler net ~name:"b" (fun _ ->
      Server.Entries { Backend.entries = [ e "e2"; e "e3" ]; references = [] });
  match Network.search net ~from:"a" (q "o=x") with
  | Ok entries ->
      check_int "deduplicated" 3 (List.length entries);
      Alcotest.(check (list string)) "first-seen order" [ "e1"; "e2"; "e3" ]
        (List.map (fun e -> List.hd (Entry.get e "cn")) entries)
  | Error e -> Alcotest.fail e

(* --- Fault-injectable rpc -------------------------------------------- *)

let rpc_with net faults =
  Network.rpc net ?faults ~from:"c" ~host:"s" ~request_bytes:10
    ~reply_bytes:(fun _ -> 20)

let test_rpc_deliver () =
  let net = Network.create () in
  (match rpc_with net None (fun () -> 42) with
  | Ok v -> check_int "value" 42 v
  | Error _ -> Alcotest.fail "expected delivery");
  let stats = Network.stats net in
  check_int "one rpc" 1 stats.Network.sync_rpcs;
  check_int "request+reply bytes" 30 stats.Network.sync_bytes;
  check_int "nothing dropped" 0 stats.Network.dropped_pdus

let test_rpc_drop_request () =
  let net = Network.create () in
  let faults = Network.Faults.create () in
  Network.Faults.script faults [ Network.Faults.Drop_request ];
  let served = ref false in
  (match rpc_with net (Some faults) (fun () -> served := true) with
  | Error Network.Timeout -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected timeout");
  check_bool "server never ran" false !served;
  let stats = Network.stats net in
  check_int "request bytes only" 10 stats.Network.sync_bytes;
  check_int "one dropped" 1 stats.Network.dropped_pdus

let test_rpc_drop_reply () =
  (* The server runs — its side effects stand — but the client times
     out, and the reply's bytes were still on the wire. *)
  let net = Network.create () in
  let faults = Network.Faults.create () in
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  let served = ref false in
  (match rpc_with net (Some faults) (fun () -> served := true) with
  | Error Network.Timeout -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected timeout");
  check_bool "server ran" true !served;
  let stats = Network.stats net in
  check_int "request+reply bytes" 30 stats.Network.sync_bytes;
  check_int "one dropped" 1 stats.Network.dropped_pdus

let test_rpc_refuse_and_partition () =
  let net = Network.create () in
  let faults = Network.Faults.create () in
  Network.Faults.script faults [ Network.Faults.Refuse ];
  let served = ref false in
  (match rpc_with net (Some faults) (fun () -> served := true) with
  | Error (Network.Refused _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected refusal");
  check_bool "refusal precedes serving" false !served;
  Network.Faults.partition faults ~a:"c" ~b:"s";
  (match rpc_with net (Some faults) (fun () -> served := true) with
  | Error (Network.Unreachable "s") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unreachable");
  check_bool "partition blocks" false !served;
  Network.Faults.heal faults ~a:"c" ~b:"s";
  match rpc_with net (Some faults) (fun () -> served := true) with
  | Ok () -> check_bool "healed link delivers" true !served
  | Error _ -> Alcotest.fail "expected delivery after heal"

(* --- A search is timed on the engine --------------------------------- *)

(* Host a refers every search to b, which holds o=x. *)
let referral_chain () =
  let net = Network.create () in
  Network.set_default_latency net (Ldap_sim.Latency.Fixed 3);
  simple_server net "a" "o=a" [] ~default_referral:(Referral.make ~host:"b" ()) ();
  simple_server net "b" "o=x"
    [ entry "cn=e,o=x" [ ("objectclass", [ "person" ]); ("cn", [ "e" ]); ("sn", [ "e" ]) ] ]
    ();
  net

let entry_dns = function
  | Ok entries -> List.map (fun e -> Dn.to_string (Entry.dn e)) entries
  | Error e -> Alcotest.fail e

let test_search_timed () =
  (* Two hops, each a request and a reply leg of 3 ticks. *)
  let net = referral_chain () in
  let engine = Network.engine net in
  let found = entry_dns (Network.search net ~from:"a" (q "cn=e,o=x")) in
  Alcotest.(check (list string)) "entry" [ "cn=e,o=x" ] found;
  check_int "one exchange a hop" 2 (Network.stats net).Network.sync_rpcs;
  check_int "clock advanced" 12 (Ldap_sim.Engine.now engine)

let test_search_inline () =
  (* Issued from inside an event, the same chain completes on the spot. *)
  let net = referral_chain () in
  let engine = Network.engine net in
  let found = ref [] in
  Ldap_sim.Engine.after engine ~delay:0 (fun () ->
      found := entry_dns (Network.search net ~from:"a" (q "cn=e,o=x")));
  Ldap_sim.Engine.run engine;
  Alcotest.(check (list string)) "entry" [ "cn=e,o=x" ] !found;
  check_int "one exchange a hop" 2 (Network.stats net).Network.sync_rpcs;
  check_int "clock unchanged" 0 (Ldap_sim.Engine.now engine)

let suite =
  [
    Alcotest.test_case "unknown host" `Quick test_unknown_host;
    Alcotest.test_case "single server" `Quick test_single_server;
    Alcotest.test_case "referral loop guard" `Quick test_referral_loop_guard;
    Alcotest.test_case "no superior fails" `Quick test_no_superior_fails;
    Alcotest.test_case "stats reset" `Quick test_stats_reset;
    Alcotest.test_case "overlap dedupe" `Quick test_overlap_dedupe;
    Alcotest.test_case "rpc deliver" `Quick test_rpc_deliver;
    Alcotest.test_case "rpc drop request" `Quick test_rpc_drop_request;
    Alcotest.test_case "rpc drop reply" `Quick test_rpc_drop_reply;
    Alcotest.test_case "rpc refuse+partition" `Quick test_rpc_refuse_and_partition;
    Alcotest.test_case "search timed" `Quick test_search_timed;
    Alcotest.test_case "search inline" `Quick test_search_inline;
  ]
