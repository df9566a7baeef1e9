type stats = {
  round_trips : int;
  entry_pdus : int;
  referral_pdus : int;
  bytes : int;
  sync_rpcs : int;
  sync_bytes : int;
  dropped_pdus : int;
}

type failure = Timeout | Unreachable of string | Refused of string

let failure_to_string = function
  | Timeout -> "timeout"
  | Unreachable host -> "unreachable: " ^ host
  | Refused msg -> "refused: " ^ msg

module Faults = struct
  type outcome = Deliver | Drop_request | Drop_reply | Refuse

  type t = {
    drop_request : float;
    drop_reply : float;
    roll : unit -> float;
    mutable script : outcome list;
    partitions : (string, unit) Hashtbl.t;
  }

  let create ?(drop_request = 0.0) ?(drop_reply = 0.0) ?(roll = fun () -> 1.0) () =
    { drop_request; drop_reply; roll; script = []; partitions = Hashtbl.create 4 }

  let script t outcomes = t.script <- t.script @ outcomes

  let link_key a b = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a
  let partition t ~a ~b = Hashtbl.replace t.partitions (link_key a b) ()
  let heal t ~a ~b = Hashtbl.remove t.partitions (link_key a b)
  let partitioned t ~a ~b =
    Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (link_key a b)

  let next_outcome t =
    match t.script with
    | o :: rest ->
        t.script <- rest;
        o
    | [] ->
        let r = t.roll () in
        if r < t.drop_request then Drop_request
        else if r < t.drop_request +. t.drop_reply then Drop_reply
        else Deliver
end

type node = Full_server of Server.t | Handler of (Query.t -> Server.response)

type t = {
  servers : (string, node) Hashtbl.t;
  mutable round_trips : int;
  mutable entry_pdus : int;
  mutable referral_pdus : int;
  mutable bytes : int;
  mutable sync_rpcs : int;
  mutable sync_bytes : int;
  mutable dropped_pdus : int;
  mutable engine : Ldap_sim.Engine.t;
  mutable inline : bool;
      (* An {!await} issued from inside an event is completing its
         chain on the spot: no leg may be scheduled meanwhile. *)
  links : (string, Ldap_sim.Latency.t) Hashtbl.t;
  mutable default_latency : Ldap_sim.Latency.t;
}

let create () =
  {
    servers = Hashtbl.create 8;
    round_trips = 0;
    entry_pdus = 0;
    referral_pdus = 0;
    bytes = 0;
    sync_rpcs = 0;
    sync_bytes = 0;
    dropped_pdus = 0;
    engine = Ldap_sim.Engine.create ();
    inline = false;
    links = Hashtbl.create 8;
    default_latency = Ldap_sim.Latency.Zero;
  }

(* The engine being replaced is run to quiescence first, so no event
   queued on it (a push in flight, a retry timer) is lost; [Engine.run]
   raises if it is running. *)
let attach_engine t e =
  Ldap_sim.Engine.run t.engine;
  t.engine <- e

let engine t = t.engine

let set_link_latency t ~a ~b lat =
  Hashtbl.replace t.links (Faults.link_key a b) lat

let set_default_latency t lat = t.default_latency <- lat

(* No per-link override set: skip building and hashing the link key. *)
let link_latency t ~a ~b =
  if Hashtbl.length t.links = 0 then t.default_latency
  else
    match Hashtbl.find_opt t.links (Faults.link_key a b) with
    | Some lat -> lat
    | None -> t.default_latency

let add_server t s = Hashtbl.replace t.servers (Server.name s) (Full_server s)
let add_handler t ~name handler = Hashtbl.replace t.servers name (Handler handler)

let stats t =
  {
    round_trips = t.round_trips;
    entry_pdus = t.entry_pdus;
    referral_pdus = t.referral_pdus;
    bytes = t.bytes;
    sync_rpcs = t.sync_rpcs;
    sync_bytes = t.sync_bytes;
    dropped_pdus = t.dropped_pdus;
  }

let reset_stats t =
  t.round_trips <- 0;
  t.entry_pdus <- 0;
  t.referral_pdus <- 0;
  t.bytes <- 0;
  t.sync_rpcs <- 0;
  t.sync_bytes <- 0;
  t.dropped_pdus <- 0

let account_response t (resp : Server.response) =
  t.round_trips <- t.round_trips + 1;
  t.bytes <- t.bytes + Ber.message_overhead;
  match resp with
  | Server.Entries { entries; references } ->
      t.entry_pdus <- t.entry_pdus + List.length entries;
      t.referral_pdus <- t.referral_pdus + List.length references;
      List.iter (fun e -> t.bytes <- t.bytes + Ber.entry_size e) entries;
      List.iter (fun urls -> t.bytes <- t.bytes + Ber.referral_size urls) references
  | Server.Referral urls ->
      t.referral_pdus <- t.referral_pdus + 1;
      t.bytes <- t.bytes + Ber.referral_size urls
  | Server.Failure _ -> ()

let send t ~host q =
  match Hashtbl.find_opt t.servers host with
  | None -> Server.Failure (Printf.sprintf "unknown host: %s" host)
  | Some node ->
      let resp =
        match node with
        | Full_server s -> Server.handle_search s q
        | Handler h -> h q
      in
      account_response t resp;
      resp


let max_hops = 32

let search t ~from (q : Query.t) =
  (* Work queue of (host, query, origin); a revisit while chasing a
     referral is a loop (error), a revisit through a continuation
     reference is a benign duplicate (skipped). *)
  let visited = Hashtbl.create 16 in
  let key host (q : Query.t) = host ^ "|" ^ Dn.canonical q.base in
  (* Entries are accumulated in reverse and deduplicated by canonical
     DN: overlapping continuation references may return the same entry
     from two servers. *)
  let seen = Hashtbl.create 64 in
  let rec go acc hops = function
    | [] -> Ok (List.rev acc)
    | (host, q, origin) :: rest ->
        if hops > max_hops then Error "referral limit exceeded"
        else if Hashtbl.mem visited (key host q) then
          if origin = `Chase then Error "referral loop detected"
          else go acc hops rest
        else begin
          Hashtbl.add visited (key host q) ();
          match send t ~host q with
          | Server.Failure msg -> Error msg
          | Server.Referral urls -> (
              match pick_url urls with
              | Error e -> Error e
              | Ok { Referral.host = next; dn } ->
                  let q' =
                    match dn with Some base -> Query.with_base q base | None -> q
                  in
                  go acc (hops + 1) ((next, q', `Chase) :: rest))
          | Server.Entries { entries; references } ->
              let follow_ups =
                List.filter_map
                  (fun urls ->
                    match pick_url urls with
                    | Error _ -> None
                    | Ok { Referral.host; dn } ->
                        let base = Option.value ~default:q.base dn in
                        (* Continuation reference: modified base, same
                           scope and filter (Figure 2). *)
                        Some (host, Query.with_base q base, `Reference))
                  references
              in
              let acc =
                List.fold_left
                  (fun acc e ->
                    let k = Dn.canonical (Entry.dn e) in
                    if Hashtbl.mem seen k then acc
                    else begin
                      Hashtbl.add seen k ();
                      e :: acc
                    end)
                  acc entries
              in
              go acc (hops + 1) (follow_ups @ rest)
        end
  and pick_url = function
    | [] -> Error "empty referral"
    | url :: _ -> Referral.parse url
  in
  go [] 0 [ (from, q, `Reference) ]

(* --- Generic fault-injectable RPC ------------------------------------ *)

let account_push t ~bytes = t.sync_bytes <- t.sync_bytes + bytes
let account_dropped t = t.dropped_pdus <- t.dropped_pdus + 1

(* The one timing decision: legs are engine events unless an inline
   {!await} is running. *)
let after t ~delay f =
  if t.inline then f () else Ldap_sim.Engine.after t.engine ~delay f

let await t start =
  let cell = ref None in
  let k r = cell := Some r in
  (if not (Ldap_sim.Engine.running t.engine) then begin
     start k;
     Ldap_sim.Engine.run t.engine
   end
   else begin
     (* Inside an event the loop cannot be re-entered: run the chain
        inline, in zero virtual time. *)
     let outer = t.inline in
     t.inline <- true;
     Fun.protect ~finally:(fun () -> t.inline <- outer) (fun () -> start k)
   end);
  match !cell with
  | Some r -> r
  | None -> invalid_arg "Network.await: the continuation never fired"

let rpc_send t ?faults ~from ~host ~request_bytes ~reply_bytes serve k =
  t.sync_rpcs <- t.sync_rpcs + 1;
  (* Latencies are drawn only for timed legs, so an inline exchange
     leaves the engine's random stream untouched. *)
  let d_req, d_rep =
    if t.inline then (0, 0)
    else
      let lat = link_latency t ~a:from ~b:host in
      let d_req = Ldap_sim.Engine.draw t.engine lat in
      (d_req, Ldap_sim.Engine.draw t.engine lat)
  in
  (* A lost exchange costs exactly the round trip it would have taken —
     the minimal model that still makes failures consume virtual time. *)
  let timeout = d_req + d_rep in
  let partitioned =
    match faults with
    | Some f -> Faults.partitioned f ~a:from ~b:host
    | None -> false
  in
  if partitioned then begin
    t.dropped_pdus <- t.dropped_pdus + 1;
    after t ~delay:timeout (fun () -> k (Error (Unreachable host)))
  end
  else begin
    t.sync_bytes <- t.sync_bytes + request_bytes;
    let outcome =
      match faults with Some f -> Faults.next_outcome f | None -> Faults.Deliver
    in
    match outcome with
    | Faults.Drop_request ->
        t.dropped_pdus <- t.dropped_pdus + 1;
        after t ~delay:timeout (fun () -> k (Error Timeout))
    | Faults.Refuse ->
        after t ~delay:(d_req + d_rep) (fun () ->
            k (Error (Refused "transient refusal")))
    | Faults.Drop_reply ->
        (* The server still processes the request — its side effects
           stand — at +d_req; the client times out no earlier than
           that, so those effects are in place when the error is
           observed. *)
        after t ~delay:d_req (fun () ->
            let r = serve () in
            t.sync_bytes <- t.sync_bytes + reply_bytes r;
            t.dropped_pdus <- t.dropped_pdus + 1);
        after t ~delay:(max timeout d_req) (fun () -> k (Error Timeout))
    | Faults.Deliver ->
        after t ~delay:d_req (fun () ->
            let r = serve () in
            t.sync_bytes <- t.sync_bytes + reply_bytes r;
            after t ~delay:d_rep (fun () -> k (Ok r)))
  end

let rpc t ?faults ~from ~host ~request_bytes ~reply_bytes serve =
  await t (rpc_send t ?faults ~from ~host ~request_bytes ~reply_bytes serve)
