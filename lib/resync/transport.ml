(* [Ldap] has a [Server] of its own, the LDAP directory server. *)
module Resync_server = Server
open Ldap

type error = Net of Network.failure | Server of string

let error_to_string = function
  | Net f -> Network.failure_to_string f
  | Server msg -> msg

type endpoint = {
  ep_handle :
    push:Protocol.push_channel option ->
    Protocol.request ->
    Query.t ->
    (Protocol.reply, string) result;
  ep_abandon : cookie:string -> unit;
  ep_estimate : Query.t -> int;
  ep_tree :
    Ldap_antientropy.Exchange.request ->
    Query.t ->
    (Ldap_antientropy.Exchange.reply, string) result;
}

type t = {
  net : Network.t;
  faults : Network.Faults.t option;
  endpoints : (string, endpoint) Hashtbl.t;
}

let create ?faults net = { net; faults; endpoints = Hashtbl.create 4 }

let network t = t.net
let faults t = t.faults

let add_endpoint t ~name ep = Hashtbl.replace t.endpoints name ep
let remove_endpoint t ~name = Hashtbl.remove t.endpoints name

let endpoint t name = Hashtbl.find_opt t.endpoints name

let serve server ~estimate =
  {
    ep_handle = (fun ~push req q -> Resync_server.handle server ?push req q);
    ep_abandon = (fun ~cookie -> Resync_server.abandon server ~cookie);
    ep_estimate = estimate;
    ep_tree = (fun req q -> Resync_server.antientropy_serve server req q);
  }

let add_master t ~name master =
  let estimate = Backend.count_matching (Master.backend master) in
  Hashtbl.replace t.endpoints name (serve (Master.server master) ~estimate)

(* The one exchange path: endpoint lookup, the RPC, and the mapping of
   its result onto [error]. *)
let call t ~host ~from ~request_bytes ~reply_bytes serve k =
  match Hashtbl.find_opt t.endpoints host with
  | None -> k (Error (Net (Network.Unreachable host)))
  | Some ep ->
      Network.rpc_send t.net ?faults:t.faults ~from ~host ~request_bytes
        ~reply_bytes:(function
          | Ok reply -> reply_bytes reply
          | Error _ -> Ber.message_overhead)
        (fun () -> serve ep)
        (fun result ->
          k
            (match result with
            | Ok (Ok reply) -> Ok reply
            | Ok (Error msg) -> Error (Server msg)
            | Error failure -> Error (Net failure)))

let exchange_async t ~host ?(from = "consumer") request query k =
  call t ~host ~from
    ~request_bytes:(Protocol.request_bytes request)
    ~reply_bytes:Protocol.reply_bytes
    (fun ep -> ep.ep_handle ~push:None request query)
    k

let exchange t ~host ?from request query =
  Network.await t.net (exchange_async t ~host ?from request query)

(* One Merkle anti-entropy walk step over the same RPC layer as the
   resync exchanges: hash messages and shipped entries pay the same
   fault schedule and byte accounting as everything else. *)
let tree_exchange t ~host ?(from = "consumer") request query =
  Network.await t.net
    (call t ~host ~from
       ~request_bytes:(Ldap_antientropy.Exchange.request_bytes request)
       ~reply_bytes:Ldap_antientropy.Exchange.reply_bytes
       (fun ep -> ep.ep_tree request query))

(* --- Persistent connections ------------------------------------------ *)

type conn = {
  mutable alive : bool;
  mutable paused : bool;
  mutable last_delivery : int;
}

let conn_alive c = c.alive
let kill c = c.alive <- false
let pause c = c.paused <- true
let resume c = c.paused <- false

let connect_async t ~host ?(from = "consumer") ~push request query k =
  let conn = { alive = true; paused = false; last_delivery = 0 } in
  (* Notifications cross the same lossy link as everything else; the
     first one that does not arrive intact breaks the connection, and
     everything after it is lost until the consumer reconnects.  The
     send status follows TCP write semantics: the push that is lost in
     flight still reports [Push_ok] (the writer cannot tell), and only
     the *next* send observes the dead connection. *)
  let send action =
    if not conn.alive then Protocol.Push_gone
    else if conn.paused then Protocol.Push_stalled
    else begin
      let delivered =
        match t.faults with
        | None -> true
        | Some f ->
            (not (Network.Faults.partitioned f ~a:from ~b:host))
            && Network.Faults.next_outcome f = Network.Faults.Deliver
      in
      if delivered then begin
        (* Scheduled delivery, one link-latency draw per push; the
           per-connection clamp keeps pushes FIFO even when a later
           push draws a smaller latency.  The connection may die in
           flight, in which case the push is discarded on arrival. *)
        let e = Network.engine t.net in
        let d = Ldap_sim.Engine.draw e (Network.link_latency t.net ~a:from ~b:host) in
        let at = max (Ldap_sim.Engine.now e + d) conn.last_delivery in
        conn.last_delivery <- at;
        Ldap_sim.Engine.schedule e ~time:at (fun () ->
            if conn.alive then begin
              Network.account_push t.net ~bytes:(Action.bytes_cost action);
              push action
            end);
        Protocol.Push_ok
      end
      else begin
        conn.alive <- false;
        Network.account_dropped t.net;
        Protocol.Push_ok
      end
    end
  in
  let channel =
    {
      Protocol.pc_send = send;
      pc_close = (fun () -> conn.alive <- false);
    }
  in
  call t ~host ~from
    ~request_bytes:(Protocol.request_bytes request)
    ~reply_bytes:Protocol.reply_bytes
    (fun ep -> ep.ep_handle ~push:(Some channel) request query)
    (function
      | Ok reply -> k (Ok (reply, conn))
      | Error e ->
          (* If the reply was lost the server may hold a session pushing
             into this closure; killing the handle discards those. *)
          conn.alive <- false;
          k (Error e))

let connect t ~host ?from ~push request query =
  Network.await t.net (connect_async t ~host ?from ~push request query)
