(* The one network a test builds around a master it holds directly: a
   transport over a fresh network, under [faults] if given, with the
   master registered at [host].  Every poll and replica of the test
   crosses it. *)
open Ldap
open Ldap_resync

let host = "master"

let transport_of ?faults master =
  let t = Transport.create ?faults (Network.create ()) in
  Transport.add_master t ~name:host master;
  t

(* One poll over the transport: the reply, or the error as a string. *)
let poll tr consumer =
  match Consumer.sync_over consumer tr ~host with
  | Ok outcome -> Ok outcome.Consumer.reply
  | Error e -> Error (Consumer.sync_error_to_string e)

(* A filter replica synchronizing from [master] over its own transport. *)
let replica_of ?cache_capacity master =
  Ldap_replication.Filter_replica.create_over ?cache_capacity (transport_of master)
    ~master_host:host
