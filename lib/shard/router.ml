open Ldap
module Protocol = Ldap_resync.Protocol
module Master = Ldap_resync.Master
module Transport = Ldap_resync.Transport
module Exchange = Ldap_antientropy.Exchange

type okind = Structural | Owned of int

(* A session query's memo entry. *)
type memo = {
  slices : Query.t option array;
      (* its restriction to each shard, built on first use: every poll
         of one query hands a shard the same value *)
  mutable cookie : string;
      (* the composite cookie last parsed or minted for it, or [""] *)
  comps : string array;
      (* [cookie]'s component for each shard, [""] where it has none;
         kept in place, so a poll that parses nothing retains nothing
         new either *)
  mutable cov : (bool * int list) option;
      (* its cover and the [geo_ok] it was computed under *)
}

type t = {
  partition : Partition.t;
  shards : Shard_master.t array;
  transport : Transport.t;
  restricted : memo Query.Tbl.t;  (* session query -> its memo entry *)
  mutable geo_ok : bool;
  mutable searches : int;
  mutable search_contacts : int;
  mutable polls : int;
  mutable poll_contacts : int;
  mutable cover_reuses : int;
  mutable moves : int;
  mutable partials : int;
  mutable escalations : int;
}

let router_host = "router"
let host _ = router_host
let partition t = t.partition
let shard t i = t.shards.(i)
let cover t q = Partition.cover ~use_geo:t.geo_ok t.partition q
let restrict t s q = Partition.restrict t.partition s q
let shard_host t s = Shard_master.host t.shards.(s)

(* How many queries the restriction memo may hold beyond the shard
   sessions that use them: a subscribing consumer's query is restricted
   before its first shard session opens. *)
let memo_slack = 16

let shard_sessions t =
  Array.fold_left
    (fun n sm -> n + Master.session_count (Shard_master.master sm))
    0 t.shards

(* A shard's slice of a session query is fixed by the query alone, so
   the memo serves every poll after the first.  A query's entry goes at
   its [Sync_end]; a query whose sessions went another way (abandoned,
   expired, retired) lingers until an insertion finds the memo past its
   bound and empties it. *)
let memo t q =
  match Query.Tbl.find_opt t.restricted q with
  | Some m -> m
  | None ->
      if Query.Tbl.length t.restricted >= shard_sessions t + memo_slack then
        Query.Tbl.reset t.restricted;
      let n = Array.length t.shards in
      let m =
        { slices = Array.make n None; cookie = ""; comps = Array.make n ""; cov = None }
      in
      Query.Tbl.replace t.restricted q m;
      m

(* A poll's cover is fixed by its query and [geo_ok], which only ever
   switches off: the memo keeps it until that happens.  A reuse counts
   as the plan-cache hit the recomputation would have been. *)
let memo_cover t m q =
  match m.cov with
  | Some (geo_ok, cov) when Bool.equal geo_ok t.geo_ok ->
      t.cover_reuses <- t.cover_reuses + 1;
      cov
  | Some _ | None ->
      let cov = cover t q in
      m.cov <- Some (t.geo_ok, cov);
      cov

let restricted t s q =
  let m = memo t q in
  match m.slices.(s) with
  | Some qs -> qs
  | None ->
      let qs = restrict t s q in
      m.slices.(s) <- Some qs;
      qs

(* --- Ownership ----------------------------------------------------------- *)

let kind_of t e =
  if Partition.is_structural e then Structural
  else Owned (Partition.of_entry t.partition e)

(* Every shard holds a structural entry and only its owner holds a
   keyed one, so the first shard holding [dn] tells which it is. *)
let owner t dn =
  Array.find_map (fun sm -> Backend.find (Shard_master.backend sm) dn) t.shards
  |> Option.map (kind_of t)

let note_geo t after =
  if t.geo_ok && not (Partition.geo_consistent t.partition after) then
    t.geo_ok <- false

(* --- Write routing ----------------------------------------------------- *)

(* Delete the placeholder/owned copy everywhere but [keep]. *)
let drop_elsewhere t ~keep dn =
  Array.iteri
    (fun i sm ->
      if i <> keep then ignore (Shard_master.apply sm (Update.delete dn)))
    t.shards

let apply_owned t s op =
  match Shard_master.apply t.shards.(s) op with
  | Error _ as e -> e
  | Ok record ->
      (match record.after with
      | None -> ()
      | Some a -> (
          note_geo t a;
          match kind_of t a with
          | Structural ->
              (* The entry lost its key: it is structural now, so every
                 shard needs the scaffolding copy. *)
              t.moves <- t.moves + 1;
              Array.iteri
                (fun i sm ->
                  if i <> s then ignore (Shard_master.apply sm (Update.add a)))
                t.shards
          | Owned s' when s' <> s ->
              t.moves <- t.moves + 1;
              ignore (Shard_master.apply t.shards.(s) (Update.delete (Entry.dn a)));
              ignore (Shard_master.apply t.shards.(s') (Update.add a))
          | Owned _ -> ()));
      Ok record

let apply_structural t op =
  match Shard_master.apply t.shards.(0) op with
  | Error _ as e -> e
  | Ok record ->
      let err = ref None in
      Array.iteri
        (fun i sm ->
          if i > 0 then
            match Shard_master.apply sm op with
            | Ok _ -> ()
            | Error e -> if !err = None then err := Some e)
        t.shards;
      (match !err with
      | Some e -> Error ("structural replication: " ^ e)
      | None ->
          (* A structural rename moves descendants whose geography the
             partition tracks by the old DN: pruning is no longer
             trustworthy. *)
          (match record.op with
          | Update.Modify_dn _ -> t.geo_ok <- false
          | _ -> ());
          (match record.after with
          | None -> ()
          | Some a -> (
              match kind_of t a with
              | Structural -> ()
              | Owned s' ->
                  (* The entry gained a key: one shard owns it now. *)
                  t.moves <- t.moves + 1;
                  drop_elsewhere t ~keep:s' (Entry.dn a);
                  note_geo t a));
          Ok record)

let route_of_op t op =
  match op with
  | Update.Add e -> (
      (* A DN that already has an owner routes there even if the new
         entry's key says otherwise: the owning shard holds the
         existing entry and correctly rejects the duplicate add. *)
      match owner t (Entry.dn e) with Some kind -> kind | None -> kind_of t e)
  | Update.Delete dn | Update.Modify (dn, _) | Update.Modify_dn { dn; _ } ->
      Option.value (owner t dn) ~default:Structural

(* A modifyDN's target may be held by a shard other than the one owning
   the renamed entry, where the owning shard's local existence check
   cannot see it.  Probing every shard gives the router's global view
   of held DNs, so the duplicate target is rejected here with the same
   error a single master's backend raises — keeping the router
   observationally equivalent. *)
let rename_target_clash t op =
  match op with
  | Update.Modify_dn { dn; new_rdn; new_superior; _ } ->
      let parent_dn =
        match new_superior with
        | Some sup -> sup
        | None -> Option.value ~default:Dn.root (Dn.parent dn)
      in
      let new_dn = Dn.child parent_dn new_rdn in
      if owner t new_dn <> None then Some new_dn else None
  | Update.Add _ | Update.Delete _ | Update.Modify _ -> None

let apply t op =
  match rename_target_clash t op with
  | Some new_dn ->
      Error (Printf.sprintf "entry already exists: %s" (Dn.to_string new_dn))
  | None -> (
      match route_of_op t op with
      | Structural -> apply_structural t op
      | Owned s -> apply_owned t s op)

(* --- Seeding ----------------------------------------------------------- *)

let seed_from_backend t source =
  let ( let* ) = Result.bind in
  let contexts = List.filter_map (Backend.find source) (Backend.contexts source) in
  let all =
    List.rev (Backend.fold_entries source ~init:[] ~f:(fun acc e -> e :: acc))
  in
  let rec seed_shards s =
    if s >= Array.length t.shards then Ok ()
    else
      let mine =
        List.filter
          (fun e ->
            Partition.is_structural e
            || Partition.of_entry t.partition e = s)
          all
      in
      let* () = Shard_master.seed t.shards.(s) ~contexts mine in
      seed_shards (s + 1)
  in
  seed_shards 0

(* --- Search fan-out ---------------------------------------------------- *)

let search t (q : Query.t) =
  let cov = cover t q in
  t.searches <- t.searches + 1;
  t.search_contacts <- t.search_contacts + List.length cov;
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | s :: rest -> (
        let qs = restrict t s q in
        let serve () =
          match Backend.search (Shard_master.backend t.shards.(s)) qs with
          | Ok { entries; _ } -> Ok entries
          | Error (Backend.No_such_object _) ->
              (* The base names an entry another shard owns: this shard
                 simply holds nothing under it. *)
              Ok []
          | Error (Backend.Base_referral { urls; _ }) ->
              Error ("referral: " ^ String.concat " " urls)
        in
        let reply_bytes r =
          let entries = Result.value r ~default:[] in
          Ber.search_reply_size ~entries ~references:[]
        in
        match
          Network.rpc
            (Transport.network t.transport)
            ?faults:(Transport.faults t.transport)
            ~from:router_host ~host:(shard_host t s)
            ~request_bytes:(Ber.search_request_size qs) ~reply_bytes serve
        with
        | Ok (Ok entries) -> go (entries :: acc) rest
        | Ok (Error e) -> Error e
        | Error f -> Error (Network.failure_to_string f))
  in
  go [] cov

(* --- ReSync fan-out ---------------------------------------------------- *)

type leg = {
  lg_shard : int;
  lg_old : string option;  (** The shard's previous cookie component. *)
  lg_reply : Protocol.reply;
  lg_conn : Transport.conn option;
}

let shard_exchange t ~push ~mode s ~cookie q =
  let req = { Protocol.mode; cookie } in
  let qs = restricted t s q in
  match (mode, push) with
  | Protocol.Persist, Some dpush -> (
      (* Relay shard pushes into the downstream channel.  A downstream
         that stopped draining (or reset) kills the shard-side
         connection too, so the shard master sees [Push_gone] on its
         next send and retires the leg instead of pushing into the
         void — backpressure propagates through the router. *)
      let conn_ref = ref None in
      let forward a =
        match dpush.Protocol.pc_send a with
        | Protocol.Push_ok -> ()
        | Protocol.Push_stalled | Protocol.Push_gone ->
            dpush.Protocol.pc_close ();
            Option.iter Transport.kill !conn_ref
      in
      match
        Transport.connect t.transport ~host:(shard_host t s) ~from:router_host
          ~push:forward req qs
      with
      | Ok (reply, conn) ->
          conn_ref := Some conn;
          Ok (reply, Some conn)
      | Error e -> Error e)
  | _ -> (
      match
        Transport.exchange t.transport ~host:(shard_host t s) ~from:router_host
          req qs
      with
      | Ok reply -> Ok (reply, None)
      | Error e -> Error e)

(* Most polls present the very cookie string the last reply handed
   back, so the query's memo keeps the components of the last cookie
   parsed or minted for it and reuses them for that same string.  A
   cookie is remembered only when each component names a distinct
   shard of this router; no shard cookie is empty. *)
let remember m c comps =
  let n = Array.length m.comps in
  Array.fill m.comps 0 n "";
  let rec fill = function
    | [] -> true
    | (s, comp) :: rest ->
        s >= 0 && s < n
        && String.length m.comps.(s) = 0
        && String.length comp > 0
        && begin
             m.comps.(s) <- comp;
             fill rest
           end
  in
  m.cookie <- (if fill comps then c else "")

let remembered m =
  let acc = ref [] in
  for s = Array.length m.comps - 1 downto 0 do
    if String.length m.comps.(s) > 0 then acc := (s, m.comps.(s)) :: !acc
  done;
  !acc

let components_of m req_cookie =
  match req_cookie with
  | None -> []
  | Some c when c == m.cookie -> remembered m
  | Some c -> (
      match Protocol.parse_composite_cookie c with
      | Some comps ->
          remember m c comps;
          comps
      (* A foreign (non-composite) cookie names sessions no shard
         knows: start over — the initial reply prunes the consumer
         clean, which is the sound answer. *)
      | None -> [])

let sync_end_shard t s cookie q =
  ignore
    (shard_exchange t ~push:None ~mode:Protocol.Sync_end s ~cookie:(Some cookie)
       q)

(* End an Incremental leg's advanced session and re-poll it from the
   consumer's acknowledged CSN via the foreign-session cookie: the
   shard answers Degraded from exactly that point. *)
let escalate t ~push ~mode leg q =
  t.escalations <- t.escalations + 1;
  Option.iter Transport.kill leg.lg_conn;
  (match leg.lg_reply.Protocol.cookie with
  | Some advanced -> sync_end_shard t leg.lg_shard advanced q
  | None -> ());
  let reparent = Option.bind leg.lg_old Protocol.reparent_cookie in
  match shard_exchange t ~push ~mode leg.lg_shard ~cookie:reparent q with
  | Ok (reply, conn) -> Ok { leg with lg_reply = reply; lg_conn = conn }
  | Error e -> Error (Transport.error_to_string e)

(* When every leg answered with the component it was presented, the
   merged components are the presented ones, so a presented cookie
   already in canonical form is exactly the one [composite_cookie]
   would mint. *)
let merged_cookie m ~presented ~stale legs =
  match presented with
  | Some c
    when List.for_all
           (fun leg -> Option.equal String.equal leg.lg_reply.Protocol.cookie leg.lg_old)
           legs
         && Protocol.is_canonical_composite c ->
      c
  | Some _ | None ->
      let comps =
        stale
        @ List.filter_map
            (fun leg ->
              Option.map (fun c -> (leg.lg_shard, c)) leg.lg_reply.Protocol.cookie)
            legs
      in
      let c = Protocol.composite_cookie comps in
      (* The query's next poll presents this string, whose parse is
         the components it was minted from: no shard cookie holds a
         '|'. *)
      remember m c comps;
      c

let merged_reply m ~presented ~kind ~stale legs =
  let actions =
    (* An ownership move lands as a delete on the old shard's leg and
       an add on the new shard's, both for the same DN; per-leg action
       sets are coalesced to one action per entry, so ordering deletes
       first keeps every cross-leg pair well-ordered. *)
    let rank = function Ldap_resync.Action.Delete _ -> 0 | _ -> 1 in
    List.stable_sort
      (fun a b -> Int.compare (rank a) (rank b))
      (List.concat_map (fun leg -> leg.lg_reply.Protocol.actions) legs)
  in
  Protocol.reply ~kind ~actions ~cookie:(Some (merged_cookie m ~presented ~stale legs))

(* The kind of a merged reply: incremental or initial content when
   every leg is, degraded otherwise. *)
let merged_kind legs =
  let all kind = List.for_all (fun leg -> leg.lg_reply.Protocol.kind = kind) legs in
  if all Protocol.Incremental then Protocol.Incremental
  else if all Protocol.Initial_content then Protocol.Initial_content
  else Protocol.Degraded

let handle_poll t ~push mode req_cookie q =
  if mode = Protocol.Persist && push = None then
    Error "persist mode requires a push channel"
  else begin
    let m = memo t q in
    let components = components_of m req_cookie in
    let cov = memo_cover t m q in
    t.polls <- t.polls + 1;
    t.poll_contacts <- t.poll_contacts + List.length cov;
    let stale =
      (* Components of shards outside the cover ride along unchanged:
         the cover can only widen (geography pruning only switches
         off), so they stay resumable. *)
      List.filter (fun (s, _) -> not (List.mem s cov)) components
    in
    let legs, failed =
      List.fold_left
        (fun (legs, failed) s ->
          let old = List.assoc_opt s components in
          match shard_exchange t ~push ~mode s ~cookie:old q with
          | Ok (reply, conn) ->
              ( { lg_shard = s; lg_old = old; lg_reply = reply; lg_conn = conn }
                :: legs,
                failed )
          | Error e -> (legs, (s, old, e) :: failed))
        ([], []) cov
    in
    let legs = List.rev legs and failed = List.rev failed in
    let kill_legs () =
      List.iter (fun leg -> Option.iter Transport.kill leg.lg_conn) legs
    in
    let all_incremental =
      List.for_all
        (fun leg -> leg.lg_reply.Protocol.kind = Protocol.Incremental)
        legs
    in
    let merged legs =
      Ok (merged_reply m ~presented:req_cookie ~kind:(merged_kind legs) ~stale legs)
    in
    match failed with
    | [] ->
        if
          all_incremental
          || List.for_all
               (fun leg -> leg.lg_reply.Protocol.kind <> Protocol.Incremental)
               legs
        then merged legs
        else begin
          (* Mixed: an Initial/Degraded leg prunes the consumer
             globally, so Incremental legs must be replayed degraded
             from the acknowledged CSN or their updates would be
             pruned away. *)
          let rec re_poll acc = function
            | [] -> Ok (List.rev acc)
            | leg :: rest ->
                if leg.lg_reply.Protocol.kind = Protocol.Incremental then (
                  match escalate t ~push ~mode leg q with
                  | Ok leg' -> re_poll (leg' :: acc) rest
                  | Error e -> Error e)
                else re_poll (leg :: acc) rest
          in
          match re_poll [] legs with
          | Error e ->
              kill_legs ();
              Error ("shard escalation failed: " ^ e)
          | Ok legs -> merged legs
        end
    | (s, _, e) :: _ ->
        if legs <> [] && all_incremental then begin
          (* Failed shards keep their previous component: their CSNs
             are acknowledged only up to what the consumer actually
             applied. *)
          t.partials <- t.partials + 1;
          let stale =
            stale
            @ List.filter_map
                (fun (s, old, _) -> Option.map (fun c -> (s, c)) old)
                failed
          in
          Ok (merged_reply m ~presented:req_cookie ~kind:Protocol.Incremental ~stale legs)
        end
        else begin
          (* A pruning reply merged with a missing shard would discard
             that shard's entries at the consumer: refuse, let the
             consumer retry.  Advanced shard sessions answer the retry
             degraded from the acknowledged CSN. *)
          kill_legs ();
          Error
            (Printf.sprintf "shard %d unreachable: %s" s
               (Transport.error_to_string e))
        end
  end

let handle_sync_end t req_cookie q =
  match req_cookie with
  | None -> Error "sync_end requires a cookie"
  | Some c -> (
      match Protocol.parse_composite_cookie c with
      | None -> Error "malformed cookie"
      | Some comps ->
          List.iter
            (fun (s, comp) ->
              if s >= 0 && s < Array.length t.shards then
                sync_end_shard t s comp q)
            comps;
          Query.Tbl.remove t.restricted q;
          Ok (Protocol.reply ~kind:Protocol.Incremental ~actions:[] ~cookie:None))

let ep_handle t ~push (req : Protocol.request) q =
  match req.mode with
  | Protocol.Sync_end -> handle_sync_end t req.cookie q
  | Protocol.Poll | Protocol.Persist -> handle_poll t ~push req.mode req.cookie q

let ep_abandon t ~cookie =
  match Protocol.parse_composite_cookie cookie with
  | None -> ()
  | Some comps ->
      List.iter
        (fun (s, comp) ->
          if s >= 0 && s < Array.length t.shards then
            Ldap_resync.Server.abandon
              (Master.server (Shard_master.master t.shards.(s)))
              ~cookie:comp)
        comps

let ep_estimate t q =
  List.fold_left
    (fun acc s ->
      acc + Backend.count_matching (Shard_master.backend t.shards.(s)) (restrict t s q))
    0 (cover t q)

(* --- Merkle anti-entropy fan-out --------------------------------------- *)

(* Shard contents are disjoint and tree tiers aggregate entry hashes
   by XOR, so the union's hash at any index is the XOR of the shards'
   hashes there (absent = zero). *)
let xor_assoc lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (i, h) ->
         let prev = Option.value (Hashtbl.find_opt tbl i) ~default:0L in
         Hashtbl.replace tbl i (Int64.logxor prev h)))
    lists;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun i h acc -> (i, h) :: acc) tbl [])

let empty_tree_reply = function
  | Exchange.Root -> Exchange.Root_hash 0L
  | Exchange.Branches _ -> Exchange.Branch_hashes []
  | Exchange.Segments _ -> Exchange.Segment_hashes []
  | Exchange.Fetch _ ->
      Exchange.Segment_entries
        { entries = []; cookie = Some (Protocol.composite_cookie []) }

(* One tier's hash lists, XOR-merged; every leg must answer that tier
   ([hashes] reads its list, [make] rebuilds the reply). *)
let merge_hashes legs ~hashes ~make =
  let rec collect acc = function
    | [] -> Ok (make (xor_assoc acc))
    | (_, reply) :: rest -> (
        match hashes reply with
        | Some hs -> collect (hs :: acc) rest
        | None -> Error "inconsistent anti-entropy replies")
  in
  collect [] legs

let merge_tree req legs =
  match legs with
  | [] -> Ok (empty_tree_reply req)
  | (_, Exchange.Root_hash _) :: _ ->
      let rec fold acc = function
        | [] -> Ok (Exchange.Root_hash acc)
        | (_, Exchange.Root_hash h) :: rest -> fold (Int64.logxor acc h) rest
        | _ -> Error "inconsistent anti-entropy replies"
      in
      fold 0L legs
  | (_, Exchange.Branch_hashes _) :: _ ->
      merge_hashes legs
        ~hashes:(function Exchange.Branch_hashes hs -> Some hs | _ -> None)
        ~make:(fun hs -> Exchange.Branch_hashes hs)
  | (_, Exchange.Segment_hashes _) :: _ ->
      merge_hashes legs
        ~hashes:(function Exchange.Segment_hashes hs -> Some hs | _ -> None)
        ~make:(fun hs -> Exchange.Segment_hashes hs)
  | (_, Exchange.Segment_entries _) :: _ ->
      let rec collect entries comps = function
        | [] ->
            Ok
              (Exchange.Segment_entries
                 {
                   entries = List.concat (List.rev entries);
                   cookie = Some (Protocol.composite_cookie (List.rev comps));
                 })
        | (s, Exchange.Segment_entries { entries = es; cookie }) :: rest ->
            let comps =
              match cookie with Some c -> (s, c) :: comps | None -> comps
            in
            collect (es :: entries) comps rest
        | _ -> Error "inconsistent anti-entropy replies"
      in
      collect [] [] legs

let ep_tree t req q =
  let cov = cover t q in
  let rec go acc = function
    | [] -> merge_tree req (List.rev acc)
    | s :: rest -> (
        match
          Transport.tree_exchange t.transport ~host:(shard_host t s)
            ~from:router_host req (restricted t s q)
        with
        | Ok reply -> go ((s, reply) :: acc) rest
        | Error e -> Error (Transport.error_to_string e))
  in
  go [] cov

(* --- Wiring ------------------------------------------------------------ *)

let endpoint t =
  {
    Transport.ep_handle = (fun ~push req q -> ep_handle t ~push req q);
    ep_abandon = (fun ~cookie -> ep_abandon t ~cookie);
    ep_estimate = (fun q -> ep_estimate t q);
    ep_tree = (fun req q -> ep_tree t req q);
  }

let register_shard t sm =
  Transport.add_master t.transport ~name:(Shard_master.host sm)
    (Shard_master.master sm)

let create partition transport shards =
  if Array.length shards <> Partition.shards partition then
    invalid_arg "Router.create: shard array does not match partition";
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  let t =
    {
      partition;
      shards = Array.copy shards;
      transport;
      restricted = Query.Tbl.create 64;
      geo_ok = true;
      searches = 0;
      search_contacts = 0;
      polls = 0;
      poll_contacts = 0;
      cover_reuses = 0;
      moves = 0;
      partials = 0;
      escalations = 0;
    }
  in
  Array.iter (register_shard t) shards;
  Transport.add_endpoint transport ~name:router_host (endpoint t);
  t

let replace_shard t i sm =
  t.shards.(i) <- sm;
  register_shard t sm

(* --- Reports ----------------------------------------------------------- *)

type shard_stat = { ss_owned : int; ss_applied : int }

type report = {
  rp_shards : shard_stat list;
  rp_plan_hits : int;
  rp_plan_misses : int;
  rp_searches : int;
  rp_search_contacts : int;
  rp_polls : int;
  rp_poll_contacts : int;
  rp_moves : int;
  rp_partials : int;
  rp_escalations : int;
  rp_geo_pruning : bool;
  rp_restricted_queries : int;
}

(* Structural entries count once, at shard 0. *)
let owned t i =
  Backend.fold_entries (Shard_master.backend t.shards.(i)) ~init:0 ~f:(fun n e ->
      match kind_of t e with
      | Owned s when s = i -> n + 1
      | Structural when i = 0 -> n + 1
      | Owned _ | Structural -> n)

let report t =
  let rp_shards =
    Array.to_list
      (Array.mapi
         (fun i sm ->
           { ss_owned = owned t i; ss_applied = Shard_master.applied sm })
         t.shards)
  in
  {
    rp_shards;
    rp_plan_hits = Partition.plan_hits t.partition + t.cover_reuses;
    rp_plan_misses = Partition.plan_misses t.partition;
    rp_searches = t.searches;
    rp_search_contacts = t.search_contacts;
    rp_polls = t.polls;
    rp_poll_contacts = t.poll_contacts;
    rp_moves = t.moves;
    rp_partials = t.partials;
    rp_escalations = t.escalations;
    rp_geo_pruning = t.geo_ok;
    rp_restricted_queries = Query.Tbl.length t.restricted;
  }
