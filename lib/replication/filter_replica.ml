open Ldap
module C = Ldap_containment
module Resync = Ldap_resync

(* Durable state: one meta store (installed filters, slot-numbered so
   consumer store names stay stable across restarts) plus one consumer
   store per stored filter, all on the same medium under a common name
   prefix. *)
type durable = {
  medium : Ldap_store.Medium.t;
  prefix : string;
  meta : Ldap_store.Store.t;
  sync_each : bool;
  mutable slots : (Query.t * int) list;
  mutable next_slot : int;
}

type t = {
  transport : Resync.Transport.t;
  mutable master_host : string;
  host : string;
  index : Resync.Consumer.t C.Containment_index.t;
  mutable consumers : (Query.t * Resync.Consumer.t) list;
      (* [index]'s stored queries and consumers in its fold order, so a
         poll round walks a list instead of the index's buckets; reset
         by [reindexed] wherever [index] gains or loses a query *)
  mutable generation : int;  (* bumped by [reindexed] *)
  cache : Query_cache.t;
  stats : Stats.t;
  mutable on_change :
    (stored:Query.t ->
    before:Entry.t option ->
    after:Entry.t option ->
    unit)
    option;
  mutable durable : durable option;
}

let upstream t =
  match Resync.Transport.endpoint t.transport t.master_host with
  | Some ep -> Some ep
  | None -> None

let make ~cache_capacity ~host transport ~master_host =
  if Option.is_none (Resync.Transport.endpoint transport master_host) then
    invalid_arg ("Filter_replica.create_over: no endpoint registered as " ^ master_host);
  {
    transport;
    master_host;
    host;
    index = C.Containment_index.create ();
    consumers = [];
    generation = 0;
    cache = Query_cache.create ~capacity:cache_capacity;
    stats = Stats.create ();
    on_change = None;
    durable = None;
  }

let reindexed t =
  t.generation <- t.generation + 1;
  t.consumers <-
    List.rev
      (C.Containment_index.fold t.index ~init:[] ~f:(fun acc q c -> (q, c) :: acc))

let create_over ?(host = "replica") ?(cache_capacity = 0) transport ~master_host =
  make ~cache_capacity ~host transport ~master_host

let stats t = t.stats
let transport t = t.transport
let master_host t = t.master_host
let set_on_change t f = t.on_change <- Some f

let retarget t ~master_host =
  (match Resync.Transport.endpoint t.transport master_host with
  | Some _ -> ()
  | None ->
      invalid_arg
        ("Filter_replica.retarget: no endpoint registered as " ^ master_host));
  t.master_host <- master_host;
  (* The old upstream's session ids mean nothing to the new one: keep
     each consumer's acknowledged CSN, drop the session id, and let the
     first exchange resynchronize degraded from that CSN. *)
  C.Containment_index.iter t.index ~f:(fun _ consumer ->
      match Resync.Consumer.cookie consumer with
      | Some c ->
          Resync.Consumer.set_cookie consumer (Resync.Protocol.reparent_cookie c);
          (* [set_cookie] bypasses the journal; a checkpoint (no-op
             without a store) makes the rewritten cookie durable. *)
          Resync.Consumer.checkpoint consumer
      | None -> ())

(* --- Durability ------------------------------------------------------ *)

module Der = Ber_codec.Der
module DW = Der.W

(* Meta WAL records: a filter installed into a slot, or a slot's
   filter removed.  Slots number consumer stores ([<prefix>.f<slot>])
   so the name survives install/remove churn of other filters.  Both
   are written backwards, children in reverse field order. *)
let installed_record ~slot q w =
  let m = DW.mark w in
  DW.query w q;
  DW.integer w slot;
  DW.enum w 0;
  DW.close_seq w m

let removed_record ~slot w =
  let m = DW.mark w in
  DW.integer w slot;
  DW.enum w 1;
  DW.close_seq w m

let consumer_store_name d slot = Printf.sprintf "%s.f%d" d.prefix slot

let slot_of d q =
  let rec go = function
    | [] -> None
    | (q', s) :: rest -> if Query.equal q' q then Some s else go rest
  in
  go d.slots

let consumer_store d slot =
  Ldap_store.Store.create ~sync:d.sync_each d.medium
    ~name:(consumer_store_name d slot)

(* The slot table: the next slot, then each (slot, query) in slot
   order — so the writer visits them highest slot first.  No tail CRC
   is known: the whole payload is checksummed. *)
let meta_snapshot d w =
  let m = DW.mark w in
  let ms = DW.mark w in
  List.iter
    (fun (q, slot) ->
      let m = DW.mark w in
      DW.query w q;
      DW.integer w slot;
      DW.close_seq w m)
    (List.sort (fun (_, a) (_, b) -> compare b a) d.slots);
  DW.close_seq w ms;
  DW.integer w d.next_slot;
  DW.close_seq w m;
  (0, 0)

(* Gives an installed filter's consumer the next slot and a fresh
   store there: opening the emptied store checkpoints the content the
   initial fetch brought in (and the cookie).  A slot number can
   outlive a crash that lost its meta record, so whatever an earlier
   run left under it goes first. *)
let open_slot d q consumer =
  let slot = d.next_slot in
  d.next_slot <- slot + 1;
  d.slots <- (q, slot) :: d.slots;
  let store = consumer_store d slot in
  Ldap_store.Store.destroy store;
  match Resync.Consumer.open_store consumer store with
  | Ok _ -> slot
  | Error e -> invalid_arg ("Filter_replica: a destroyed store opened non-empty: " ^ e)

let install_durable t q consumer =
  match t.durable with
  | None -> ()
  | Some d ->
      let slot = open_slot d q consumer in
      Ldap_store.Store.append_w d.meta (installed_record ~slot q)

let remove_durable t q =
  match t.durable with
  | None -> ()
  | Some d -> (
      match slot_of d q with
      | None -> ()
      | Some slot ->
          d.slots <- List.filter (fun (q', _) -> not (Query.equal q' q)) d.slots;
          Ldap_store.Store.append_w d.meta (removed_record ~slot);
          Ldap_store.Store.destroy (consumer_store d slot))

let record_outcome t ~fetch outcome =
  Stats.add_reply t.stats outcome.Resync.Consumer.reply ~fetch;
  Stats.record_sync_outcome t.stats outcome

let sync_consumer t consumer ~fetch =
  Resync.Consumer.sync_over consumer t.transport ~host:t.master_host
    ~from:t.host
  |> Result.map (record_outcome t ~fetch)

(* The consumer's repair ladder ({!Resync.Consumer.repair}), with its
   costs recorded: the walk's bytes whether or not it converged, and a
   cold fetch as fetch traffic, or as a sync failure when it failed. *)
let repair t consumer =
  let r = Resync.Consumer.repair consumer t.transport ~host:t.master_host ~from:t.host in
  (match r with
  | Resync.Consumer.Merkle report -> Stats.record_merkle t.stats report
  | Cold { walk; fetch } -> (
      Result.iter (Stats.record_merkle t.stats) walk;
      match fetch with
      | Ok outcome -> record_outcome t ~fetch:true outcome
      | Error _ -> Stats.record_sync_failure t.stats));
  r

(* The session fetches the stored query's attributes plus the ones
   its filter mentions, so contained queries can be re-evaluated
   locally; answers still project to the caller's selection. *)
let make_consumer t q =
  let consumer = Resync.Consumer.create (Replica.widen_attrs q) in
  Resync.Consumer.set_on_change consumer (fun ~before ~after ->
      match t.on_change with
      | Some f -> f ~stored:q ~before ~after
      | None -> ());
  consumer

let register_consumer t q consumer =
  C.Containment_index.add t.index q consumer;
  reindexed t;
  install_durable t q consumer

let install_filter t q =
  if C.Containment_index.mem t.index q then Ok ()
  else
    let consumer = make_consumer t q in
    match sync_consumer t consumer ~fetch:true with
    | Ok () ->
        register_consumer t q consumer;
        Ok ()
    | Error e -> Error (Resync.Consumer.sync_error_to_string e)

(* --- Delta installs ---------------------------------------------------
   A filter-set transition does not have to fetch regions the replica
   already holds.  [install_filter_rescoped] covers the narrowing case:
   the new query is contained in a stored one, so its content is
   seeded wholesale from the donor consumer and the session opened
   with the reserved foreign-session cookie at the donor's
   acknowledged CSN — the upstream answers degraded from exactly
   there, shipping full entries only for members changed since and
   DN-only retains for the (already held) rest.  [install_filter_seeded]
   covers overlap without containment: seed whatever the donors hold
   that matches, then let Merkle anti-entropy ship only the differing
   segments.  Both fall back to a cold install when the cheap path's
   preconditions fail. *)

type install_how = Kept | Rescoped | Seeded | Cold

(* A donor can only seed entries whose attributes survive its own
   projection: seeding from a narrower selection would bake
   missing-attribute images into content the degraded reply then
   retains as "unchanged". *)
let donor_attrs_cover ~donor q =
  match (Replica.widen_attrs donor).Query.attrs with
  | Query.All -> true
  | Query.Select avail -> (
      match Query.attr_list (Replica.widen_attrs q).Query.attrs with
      | None -> false
      | Some needed -> List.for_all (fun a -> List.mem a avail) needed)

let donor_csn consumer =
  match Resync.Consumer.cookie consumer with
  | Some ck -> Option.map snd (Resync.Protocol.parse_cookie ck)
  | None -> None

let seed_entries q donors =
  let wq = Replica.widen_attrs q in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun donor ->
      List.filter_map
        (fun e ->
          let k = Dn.canonical (Entry.dn e) in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.replace seen k ();
            Some (Resync.Action.Add e)
          end)
        (Replica.eval_over_store wq (Resync.Consumer.content donor)))
    donors

let install_fetched t q = Result.map (fun () -> Cold) (install_filter t q)

let install_filter_rescoped t q ~donor =
  if C.Containment_index.mem t.index q then Ok Kept
  else
    match C.Containment_index.find t.index donor with
    | None -> install_fetched t q
    | Some dc -> (
        match (donor_attrs_cover ~donor q, donor_csn dc) with
        | true, Some csn -> (
            let consumer = make_consumer t q in
            Resync.Consumer.apply_reply consumer
              (Resync.Protocol.reply ~kind:Resync.Protocol.Initial_content
                 ~actions:(seed_entries q [ dc ])
                 ~cookie:(Some (Resync.Protocol.cookie_of ~id:0 ~csn)));
            match sync_consumer t consumer ~fetch:false with
            | Ok () ->
                register_consumer t q consumer;
                Ok Rescoped
            | Error e -> Error (Resync.Consumer.sync_error_to_string e))
        | false, _ | _, None -> install_fetched t q)

let install_filter_seeded t q ~donors =
  if C.Containment_index.mem t.index q then Ok Kept
  else
    let dcs =
      List.filter_map
        (fun donor ->
          if donor_attrs_cover ~donor q then
            C.Containment_index.find t.index donor
          else None)
        donors
    in
    (* Seed whatever the donors already hold for [q]; the repair
       ladder's Merkle walk then ships only the differing segments and
       mints the resume cookie, and a failed walk fetches cold.  No
       foreign-session cookie here: without containment there is no
       single CSN the seed is complete at.  No donor, or an empty
       seed, means the region pre-filter was wrong — a plain initial
       fetch is strictly cheaper than a Merkle walk over nothing. *)
    match seed_entries q dcs with
    | [] -> install_fetched t q
    | seed -> (
        let consumer = make_consumer t q in
        Resync.Consumer.apply_reply consumer
          (Resync.Protocol.reply ~kind:Resync.Protocol.Initial_content
             ~actions:seed ~cookie:None);
        match repair t consumer with
        | Resync.Consumer.Merkle _ ->
            register_consumer t q consumer;
            Ok Seeded
        | Cold { fetch = Ok _; _ } ->
            register_consumer t q consumer;
            Ok Cold
        | Cold { fetch = Error e; _ } -> Error (Resync.Consumer.sync_error_to_string e))

let remove_filter t q =
  (* End the session at the upstream before dropping local state (a
     vanished upstream just means there is no session left to end). *)
  (match C.Containment_index.find t.index q with
  | Some consumer -> (
      match (Resync.Consumer.cookie consumer, upstream t) with
      | Some cookie, Some ep -> ep.Resync.Transport.ep_abandon ~cookie
      | _ -> ())
  | None -> ());
  remove_durable t q;
  C.Containment_index.remove t.index q;
  reindexed t

let consumers t = t.consumers
let stored_filters t = List.rev_map fst t.consumers
let generation t = t.generation
let covers t q = C.Containment_index.covers t.index q

let filter_count t = C.Containment_index.length t.index + Query_cache.length t.cache

let size_entries t =
  let dns =
    C.Containment_index.fold t.index ~init:Dn.Set.empty ~f:(fun acc _ consumer ->
        Dn.Set.union acc (Resync.Consumer.dns consumer))
  in
  Dn.Set.cardinal dns

let estimate_size t q =
  match upstream t with Some ep -> ep.Resync.Transport.ep_estimate q | None -> 0

(* Every stored consumer was made from its stored query widened
   ([make_consumer]), so the consumer's own query already carries the
   attributes a contained query can be evaluated over. *)
let containing_consumer t q =
  C.Containment_index.find_container_where t.index q ~pred:(fun _ c ->
      Replica.filter_attrs_available ~available:(Resync.Consumer.query c).Query.attrs q)

let consumer_for t q = C.Containment_index.find t.index q

let answer t q =
  match containing_consumer t q with
  | Some (_, consumer) ->
      let entries = Replica.eval_over_store q (Resync.Consumer.content consumer) in
      Stats.record_query t.stats ~hit:true;
      Replica.Answered entries
  | None -> (
      match Query_cache.answer t.cache q with
      | Some entries ->
          Stats.record_query t.stats ~hit:true;
          Replica.Answered entries
      | None ->
          Stats.record_query t.stats ~hit:false;
          Replica.Referral)

let record_miss_result t q entries = Query_cache.add t.cache q entries

(* The outcome of one round poll, synchronous or not. *)
let record_poll t = function
  | Ok outcome -> record_outcome t ~fetch:false outcome
  | Error (Resync.Consumer.Exhausted _) ->
      (* The consumer keeps its cookie and content; the filter stays
         stale until a later round reaches the master. *)
      Stats.record_sync_failure t.stats
  | Error (Resync.Consumer.Rejected msg) ->
      invalid_arg ("Filter_replica.sync: " ^ msg)

(* Sequential CPS walk over the selected filters: one in-flight poll
   per replica at a time, so a slow upstream never interleaves two
   exchanges for the same consumer.  The list is the one held when the
   round starts, whatever installs or removals happen meanwhile. *)
let poll_round t consumers k =
  let rec go = function
    | [] -> k ()
    | (_, consumer) :: rest ->
        Resync.Consumer.sync_async consumer t.transport ~host:t.master_host
          ~from:t.host (fun result ->
            record_poll t result;
            go rest)
  in
  go consumers

let sync_async t k = poll_round t t.consumers k

let sync_where t pred =
  Network.await (Resync.Transport.network t.transport)
    (poll_round t (List.filter (fun (q, _) -> pred q) t.consumers))

let sync t = sync_where t (fun _ -> true)

let comparisons t =
  C.Containment_index.comparisons t.index + Query_cache.comparisons t.cache

(* --- Durable state --------------------------------------------------- *)

type filter_recovery = {
  fr_query : Query.t;
  fr_slot : int;
  fr_cookie : string option;
  fr_entries : int;
  fr_replayed : int;
  fr_truncated : bool;
  fr_truncation_point : int;
  fr_stale : int;
  fr_wal_bytes : int;
  fr_snapshot_bytes : int;
  fr_resync : Resync.Consumer.repair option;
}

type recovery_report = {
  meta_replayed : int;
  meta_truncated : bool;
  filters : filter_recovery list;
}

let detach_store t =
  match t.durable with
  | None -> ()
  | Some _ ->
      t.durable <- None;
      C.Containment_index.iter t.index ~f:(fun _ consumer ->
          Resync.Consumer.detach_store consumer)

let checkpoint t =
  match t.durable with
  | None -> ()
  | Some d ->
      Ldap_store.Store.checkpoint_w d.meta (meta_snapshot d);
      C.Containment_index.iter t.index ~f:(fun _ consumer ->
          Resync.Consumer.checkpoint consumer)

(* Meta snapshot: the next slot, then each (slot, query); WAL records:
   a filter installed into a slot (0) or a slot's filter removed (1).
   Both rebuild [slots], restored slots in any order. *)
let restore_meta d payload =
  Ldap_store.Codec.decode
    (fun c ->
      let inner = Der.read_seq c in
      d.next_slot <- Der.read_integer inner;
      let slots = Der.read_seq inner in
      while not (Der.at_end slots) do
        let s = Der.read_seq slots in
        let slot = Der.read_integer s in
        let q = Der.read_query s in
        d.slots <- (q, slot) :: d.slots
      done)
    payload

let replay_meta d payload =
  Ldap_store.Codec.decode
    (fun c ->
      let inner = Der.read_seq c in
      match Der.read_enum inner with
      | 0 ->
          let slot = Der.read_integer inner in
          let q = Der.read_query inner in
          d.slots <- (q, slot) :: d.slots;
          if slot >= d.next_slot then d.next_slot <- slot + 1
      | 1 ->
          let slot = Der.read_integer inner in
          d.slots <- List.filter (fun (_, s) -> s <> slot) d.slots
      | n ->
          raise (Ber_codec.Decode_error (Printf.sprintf "bad replica meta record %d" n)))
    payload

(* Reopens one restored slot's consumer from its store — content and
   cookie come from the store, not a re-fetch; the next poll resumes
   ReSync from the durable cookie. *)
let open_restored t d (q, slot) =
  let ( let* ) = Result.bind in
  let consumer = make_consumer t q in
  let* crec = Resync.Consumer.open_store consumer (consumer_store d slot) in
  C.Containment_index.add t.index q consumer;
  reindexed t;
  (* A truncated WAL or a stale generation means durable replay lost
     acknowledged updates: the recovered content may lag the CSN any
     surviving cookie claims, or just silently lag the master.  A slot
     with no snapshot lost its files outright: every slot is
     checkpointed when its store is opened.  Resynchronize {e before}
     this filter serves reads, through the repair ladder. *)
  let damaged =
    crec.Ldap_store.Store.truncated
    || crec.Ldap_store.Store.stale > 0
    || Option.is_none crec.Ldap_store.Store.snapshot
  in
  let resync = if damaged then Some (repair t consumer) else None in
  (* A lost store opened empty, which checkpointed the empty consumer:
     checkpoint the repaired one, or a crash that loses the unsynced
     repair would leave that empty image standing as undamaged. *)
  if Option.is_none crec.Ldap_store.Store.snapshot then Resync.Consumer.checkpoint consumer;
  Ok
    {
      fr_query = q;
      fr_slot = slot;
      fr_cookie = Resync.Consumer.cookie consumer;
      fr_entries = Resync.Consumer.size consumer;
      fr_replayed = List.length crec.Ldap_store.Store.records;
      fr_truncated = crec.Ldap_store.Store.truncated;
      fr_truncation_point = crec.Ldap_store.Store.truncation_point;
      fr_stale = crec.Ldap_store.Store.stale;
      fr_wal_bytes = crec.Ldap_store.Store.wal_bytes;
      fr_snapshot_bytes = crec.Ldap_store.Store.snapshot_bytes;
      fr_resync = resync;
    }

let repair_all t report =
  (* A slot the open found damaged was repaired there already. *)
  let repaired_at_open q =
    List.exists
      (fun fr -> Option.is_some fr.fr_resync && Query.equal q fr.fr_query)
      report.filters
  in
  let repaired =
    List.filter_map
      (fun (q, consumer) ->
        if repaired_at_open q then None else Some (q, consumer, repair t consumer))
      t.consumers
  in
  let settle fr =
    match List.find_opt (fun (q, _, _) -> Query.equal q fr.fr_query) repaired with
    | Some (_, consumer, r) ->
        {
          fr with
          fr_cookie = Resync.Consumer.cookie consumer;
          fr_entries = Resync.Consumer.size consumer;
          fr_resync = Some r;
        }
    | None -> fr
  in
  { report with filters = List.map settle report.filters }

let open_store ?(sync = true) t medium ~prefix =
  let ( let* ) = Result.bind in
  let meta = Ldap_store.Store.create ~sync medium ~name:(prefix ^ ".meta") in
  let d = { medium; prefix; meta; sync_each = sync; slots = []; next_slot = 0 } in
  let* recovery =
    Ldap_store.Store.open_state meta
      ~populated:(t.consumers <> [])
      ~snapshot:(restore_meta d) ~replay:(replay_meta d)
      ~attach:(fun () -> t.durable <- Some d)
      ~checkpoint:(fun () ->
        (* Filters installed before the store was opened get slots
           and stores now; the meta checkpoint makes the slot table
           itself durable. *)
        List.iter (fun (q, consumer) -> ignore (open_slot d q consumer : int)) t.consumers;
        Ldap_store.Store.checkpoint_w meta (meta_snapshot d))
  in
  (* The slots the store restored, in slot order: the ones whose
     filter has no consumer yet (none when the store was empty). *)
  let restored =
    List.filter (fun (q, _) -> not (C.Containment_index.mem t.index q)) d.slots
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let* filters =
    List.fold_left
      (fun acc slot ->
        let* reports = acc in
        let* report = open_restored t d slot in
        Ok (report :: reports))
      (Ok []) restored
  in
  Ok
    {
      meta_replayed = List.length recovery.Ldap_store.Store.records;
      meta_truncated = recovery.Ldap_store.Store.truncated;
      filters = List.rev filters;
    }
