type stats = {
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

type t = {
  handlers : (string, Query.t -> Server.response) Hashtbl.t;
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
    handlers = Hashtbl.create 8;
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

let add_handler t ~name handler = Hashtbl.replace t.handlers name handler

let stats t =
  {
    bytes = t.bytes;
    sync_rpcs = t.sync_rpcs;
    sync_bytes = t.sync_bytes;
    dropped_pdus = t.dropped_pdus;
  }

let reset_stats t =
  t.bytes <- 0;
  t.sync_rpcs <- 0;
  t.sync_bytes <- 0;
  t.dropped_pdus <- 0

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

(* --- Referral-chasing search ----------------------------------------- *)

let client_host = "client"
let max_hops = 32

let reply_size = function
  | Server.Entries { entries; references } -> Ber.search_reply_size ~entries ~references
  | Server.Referral urls -> Ber.search_reply_size ~entries:[] ~references:[ urls ]
  | Server.Failure _ -> Ber.search_reply_size ~entries:[] ~references:[]

let search t ~from (q : Query.t) =
  (* Work queue of (host, query, origin); a revisit while chasing a
     referral is a loop (error), a revisit through a continuation
     reference is a benign duplicate (skipped).  Entries are
     accumulated in reverse and deduplicated by canonical DN:
     overlapping continuation references may return the same entry
     from two servers. *)
  let visited = Hashtbl.create 16 and seen = Hashtbl.create 64 in
  (* Where a referral's first URL sends the query, at the base it
     names (Figure 2's modified base), same scope and filter. *)
  let target urls (q : Query.t) =
    match urls with
    | [] -> Error "empty referral"
    | url :: _ ->
        Referral.parse url
        |> Result.map (fun { Referral.host; dn } ->
               (host, Query.with_base q (Option.value ~default:q.base dn)))
  in
  let fresh e =
    let id = Dn.canonical (Entry.dn e) in
    let is_new = not (Hashtbl.mem seen id) in
    if is_new then Hashtbl.add seen id ();
    is_new
  in
  let rec go acc hops queue k =
    match queue with
    | [] -> k (Ok (List.rev acc))
    | _ when hops > max_hops -> k (Error "referral limit exceeded")
    | (host, (q : Query.t), origin) :: rest -> (
        let key = host ^ "|" ^ Dn.canonical q.base in
        if Hashtbl.mem visited key then
          if origin = `Chase then k (Error "referral loop detected") else go acc hops rest k
        else begin
          Hashtbl.add visited key ();
          match Hashtbl.find_opt t.handlers host with
          | None -> k (Error ("unknown host: " ^ host))
          | Some handler ->
              let request_bytes = Ber.search_request_size q in
              (* The search's share of the bytes {!rpc_send} counts. *)
              let reply_bytes r =
                let n = reply_size r in
                t.bytes <- t.bytes + request_bytes + n;
                n
              in
              rpc_send t ~from:client_host ~host ~request_bytes ~reply_bytes
                (fun () -> handler q)
                (function
                  | Error f -> k (Error (failure_to_string f))
                  | Ok (Server.Failure msg) -> k (Error msg)
                  | Ok (Server.Referral urls) -> (
                      match target urls q with
                      | Ok (next, q') -> go acc (hops + 1) ((next, q', `Chase) :: rest) k
                      | Error e -> k (Error e))
                  | Ok (Server.Entries { entries; references }) ->
                      let follow_ups =
                        List.filter_map
                          (fun urls ->
                            match target urls q with
                            | Ok (h, q') -> Some (h, q', `Reference)
                            | Error _ -> None)
                          references
                      in
                      let acc = List.rev_append (List.filter fresh entries) acc in
                      go acc (hops + 1) (follow_ups @ rest) k)
        end)
  in
  await t (go [] 0 [ (from, q, `Reference) ])
