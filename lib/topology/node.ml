open Ldap
module C = Ldap_containment
module Resync = Ldap_resync
module R = Ldap_replication

(* A downstream session tracks what it has sent as a cursor over the
   stored consumer's content-store change spine plus a table of sent
   image hashes — never a full entry-map snapshot.  Serving a poll
   walks only the DNs mutated since [spine_pos] (O(diff)); the hash
   table arbitrates Add vs Modify vs no-op per changed DN and costs
   one DN string and a hash per member instead of the entries
   themselves. *)
type session = {
  id : int;
  query : Query.t;
  matcher : Resync.Content.matcher;  (* query compiled once per session *)
  stored : Query.t;  (* the node's stored query this session is served from *)
  mutable seen : (string, Dn.t * int64) Hashtbl.t;
      (* canonical DN -> (DN, content hash of the sent selected image) *)
  mutable spine_pos : int;  (* store revision this session has consumed *)
  mutable synced_csn : Csn.t;
  mutable cookie : Csn.t * string;  (* last cookie minted, and its CSN *)
  mutable persist_push : Resync.Protocol.push_channel option;
}

type t = {
  replica : R.Filter_replica.t;
  host : string;
  sessions : (int, session) Hashtbl.t;
  persist : (int, session) Hashtbl.t;
  dispatch : C.Predicate_index.t option;  (* [Routed] only *)
  mutable next_id : int;
  mutable clock : int;
  (* Serving cost counters, the O(diff) evidence the scale sweep
     gates on. *)
  mutable inc_polls : int;  (* incremental polls served *)
  mutable inc_scanned : int;  (* DNs/entries examined serving them *)
  mutable inc_rescans : int;  (* cursor fell off the spine: full diff *)
}

let replica t = t.replica
let host t = t.host
let upstream t = R.Filter_replica.master_host t.replica
let schema t = R.Filter_replica.schema t.replica
let stats t = R.Filter_replica.stats t.replica
let session_count t = Hashtbl.length t.sessions
let persistent_count t = Hashtbl.length t.persist

(* --- Referral envelope ----------------------------------------------
   A subscription the node cannot prove contained is rejected with the
   LDAP URL of its own upstream; the subscriber chases it one tier up,
   like a search referral (Figure 2). *)

let referral_prefix = "referral:"

let referral_error url = referral_prefix ^ url

let referral_of_error msg =
  let n = String.length referral_prefix in
  if String.length msg > n && String.sub msg 0 n = referral_prefix then
    Some (String.sub msg n (String.length msg - n))
  else None

(* --- Session plumbing (mirrors Master) ------------------------------ *)

let set_persist t session push =
  session.persist_push <- push;
  match push with
  | Some _ -> Hashtbl.replace t.persist session.id session
  | None -> Hashtbl.remove t.persist session.id

let remove_session t id =
  Hashtbl.remove t.sessions id;
  Hashtbl.remove t.persist id;
  Option.iter (fun idx -> C.Predicate_index.remove idx id) t.dispatch

(* The helpers below take the stored query's consumer, resolved once
   per serve. *)
let consumer_of t stored = R.Filter_replica.consumer_for t.replica stored
let store_rev c = Content_store.rev (Resync.Consumer.content c)

(* The node's own synchronization point for a stored query: the CSN of
   the cookie its upstream consumer holds.  All CSNs originate at the
   root backend, so this is directly comparable to whatever any
   downstream cookie carries. *)
let node_csn consumer =
  match Resync.Consumer.cookie_csn consumer with Some csn -> csn | None -> Csn.zero

let new_session t query ~stored ~consumer ~persist_push =
  (* Id 0 is the reserved foreign-session marker (reparent translation):
     an intermediate master must never hand it out either. *)
  if t.next_id = 0 then t.next_id <- 1;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let csn = node_csn consumer in
  let session =
    {
      id;
      query;
      matcher = Resync.Content.matcher (schema t) query;
      stored;
      seen = Hashtbl.create 64;
      spine_pos = store_rev consumer;
      synced_csn = csn;
      cookie = (csn, Resync.Protocol.cookie_of ~id ~csn);
      persist_push = None;
    }
  in
  Hashtbl.replace t.sessions id session;
  set_persist t session persist_push;
  Option.iter
    (fun idx -> C.Predicate_index.add idx id query.Query.filter)
    t.dispatch;
  session

let current_content t session consumer =
  R.Replica.eval_over_entries (schema t) session.query
    (Resync.Consumer.entries_seq consumer)

let select_action (q : Query.t) = function
  | Resync.Action.Add e ->
      Resync.Action.Add (Entry.select e (Query.attr_list q.Query.attrs))
  | Resync.Action.Modify e ->
      Resync.Action.Modify (Entry.select e (Query.attr_list q.Query.attrs))
  | (Resync.Action.Delete _ | Resync.Action.Retain _) as a -> a

(* Entries are already selected when hashed, so the hash identifies
   the image as sent downstream, not the stored one. *)
let note_sent session e =
  Hashtbl.replace session.seen
    (Dn.canonical (Entry.dn e))
    (Entry.dn e, Entry.content_hash64 e)

let reset_seen session entries =
  session.seen <- Hashtbl.create (max 64 (2 * List.length entries));
  List.iter (note_sent session) entries

(* --- Replies -------------------------------------------------------- *)

(* The cookie string is minted again only when the session's CSN
   moved: most polls hand back the one they presented. *)
let session_cookie session ~mode =
  match mode with
  | Resync.Protocol.Poll | Resync.Protocol.Persist ->
      let csn, cookie = session.cookie in
      if Csn.equal csn session.synced_csn then Some cookie
      else begin
        let cookie =
          Resync.Protocol.cookie_of ~id:session.id ~csn:session.synced_csn
        in
        session.cookie <- (session.synced_csn, cookie);
        Some cookie
      end
  | Resync.Protocol.Sync_end -> None

let initial_reply t session consumer ~mode =
  (* The cursor position is pinned before the content is read: changes
     racing the read are re-examined on the next poll instead of
     falling between snapshot and cursor. *)
  session.spine_pos <- store_rev consumer;
  let entries = current_content t session consumer in
  reset_seen session entries;
  session.synced_csn <- node_csn consumer;
  Resync.Protocol.reply ~kind:Resync.Protocol.Initial_content
    ~actions:(List.map (fun e -> Resync.Action.Add e) entries)
    ~cookie:(session_cookie session ~mode)

(* Incremental replies stream the stored consumer's change spine from
   the session's cursor: only the DNs mutated since its last poll are
   examined, the [seen] hash table resolving each to Add / Modify /
   Delete / no-op — the node keeps no per-session action history and
   no per-session content copy, the replica's store {e is} the
   history.  A cursor that fell off the trimmed spine rebuilds by one
   full diff against the hash table and resumes streaming.  Deletes
   first, like the master's coalescer. *)
let incremental_from_spine t session st changed =
  let select = Query.attr_list session.query.Query.attrs in
  let deletes = ref [] and upserts = ref [] in
  List.iter
    (fun dn ->
      t.inc_scanned <- t.inc_scanned + 1;
      let key = Dn.canonical dn in
      let now =
        match Content_store.find st dn with
        | Some e when Resync.Content.matches session.matcher e ->
            Some (Entry.select e select)
        | Some _ | None -> None
      in
      match (now, Hashtbl.find_opt session.seen key) with
      | Some img, Some (_, h0) ->
          if not (Int64.equal (Entry.content_hash64 img) h0) then begin
            note_sent session img;
            upserts := Resync.Action.Modify img :: !upserts
          end
      | Some img, None ->
          note_sent session img;
          upserts := Resync.Action.Add img :: !upserts
      | None, Some (dn0, _) ->
          Hashtbl.remove session.seen key;
          deletes := Resync.Action.Delete dn0 :: !deletes
      | None, None -> ())
    changed;
  List.rev !deletes @ List.rev !upserts

let incremental_by_rescan t session consumer =
  t.inc_rescans <- t.inc_rescans + 1;
  let current = current_content t session consumer in
  let fresh = Hashtbl.create (max 64 (2 * List.length current)) in
  let upserts =
    List.filter_map
      (fun e ->
        t.inc_scanned <- t.inc_scanned + 1;
        let key = Dn.canonical (Entry.dn e) in
        let h = Entry.content_hash64 e in
        let action =
          match Hashtbl.find_opt session.seen key with
          | Some (_, h0) when Int64.equal h h0 -> None
          | Some _ -> Some (Resync.Action.Modify e)
          | None -> Some (Resync.Action.Add e)
        in
        Hashtbl.replace fresh key (Entry.dn e, h);
        action)
      current
  in
  let deletes =
    Hashtbl.fold
      (fun key (dn, _) acc ->
        t.inc_scanned <- t.inc_scanned + 1;
        if Hashtbl.mem fresh key then acc else Resync.Action.Delete dn :: acc)
      session.seen []
  in
  session.seen <- fresh;
  deletes @ upserts

let incremental_reply t session consumer ~mode =
  t.inc_polls <- t.inc_polls + 1;
  let st = Resync.Consumer.content consumer in
  let pos = session.spine_pos and rev = Content_store.rev st in
  session.spine_pos <- rev;
  let actions =
    if pos >= rev then []  (* the cursor sits at the store's revision *)
    else
      match Content_store.changes_since st pos with
      | Some changed -> incremental_from_spine t session st changed
      | None -> incremental_by_rescan t session consumer
  in
  session.synced_csn <- node_csn consumer;
  Resync.Protocol.reply ~kind:Resync.Protocol.Incremental ~actions
    ~cookie:(session_cookie session ~mode)

(* Degraded mode, eq. (3), against replica content: full entries for
   members changed since the cookie's CSN (or lacking a usable
   modifyTimestamp — conservatively treated as changed), [retain] for
   the rest; the downstream prunes everything not mentioned. *)
let degraded_reply t query ~stored ~consumer ~since ~mode ~persist_push =
  let session = new_session t query ~stored ~consumer ~persist_push in
  let members = current_content t session consumer in
  let actions =
    List.map
      (fun e ->
        if Resync.Content.changed_since since e then Resync.Action.Add e
        else Resync.Action.Retain (Entry.dn e))
      members
  in
  reset_seen session members;
  Resync.Protocol.reply ~kind:Resync.Protocol.Degraded ~actions
    ~cookie:(session_cookie session ~mode)

(* --- Serving -------------------------------------------------------- *)

(* A poll from a live session presenting the CSN it was last handed,
   for the query it subscribed, whose stored query is still installed.
   Containment of that query in the stored one was proved when the
   session was created and holds while the stored query stays, so such
   a poll skips admission altogether. *)
let known_session t (request : Resync.Protocol.request) query =
  match Option.bind request.cookie Resync.Protocol.parse_cookie with
  | Some (id, csn) -> (
      match Hashtbl.find_opt t.sessions id with
      | Some session
        when Csn.equal csn session.synced_csn && Query.equal session.query query
        -> (
          match consumer_of t session.stored with
          | Some c -> Some (session, c)
          | None -> None)
      | Some _ | None -> None)
  | None -> None

(* Everything else proves containment first: a new subscription gets
   initial content; a cookie the node cannot continue gets degraded
   mode from its CSN.  That covers an unknown session — including the
   reserved foreign-session id 0 installed by cookie translation when a
   consumer was re-parented here — and a known one that acknowledges a
   CSN other than the one it was handed (a reply or pushed action was
   lost, so its sent-image table reflects sent-not-received state) or
   whose stored query was removed since. *)
let admit t (request : Resync.Protocol.request) query ~mode ~persist_push =
  match R.Filter_replica.containing_consumer t.replica query with
  | None ->
      (* Not provably contained in any stored query: refer the
         subscriber to this node's own upstream. *)
      Error (referral_error (Referral.make ~host:(upstream t) ()))
  | Some (stored, consumer) -> (
      match request.cookie with
      | None ->
          let session = new_session t query ~stored ~consumer ~persist_push in
          Ok (initial_reply t session consumer ~mode)
      | Some c -> (
          match Resync.Protocol.parse_cookie c with
          | None -> Error "malformed cookie"
          | Some (id, since) ->
              (match Hashtbl.find_opt t.sessions id with
              | Some session when Query.equal session.query query ->
                  remove_session t session.id
              | Some _ | None -> ());
              Ok (degraded_reply t query ~stored ~consumer ~since ~mode ~persist_push)))

let handle t ?push (request : Resync.Protocol.request) query =
  t.clock <- t.clock + 1;
  let mode = request.Resync.Protocol.mode in
  match mode with
  | Resync.Protocol.Sync_end -> (
      match request.cookie with
      | None -> Error "sync_end requires a cookie"
      | Some c -> (
          match Resync.Protocol.parse_cookie c with
          | None -> Error "malformed cookie"
          | Some (id, _) ->
              remove_session t id;
              Ok
                (Resync.Protocol.reply ~kind:Resync.Protocol.Incremental
                   ~actions:[] ~cookie:None)))
  | Resync.Protocol.Poll | Resync.Protocol.Persist ->
      if mode = Resync.Protocol.Persist && Option.is_none push then
        Error "persist mode requires a push channel"
      else
        let persist_push =
          if mode = Resync.Protocol.Persist then push else None
        in
        let reply =
          match known_session t request query with
          | Some (session, consumer) ->
              set_persist t session persist_push;
              Ok (incremental_reply t session consumer ~mode)
          | None -> admit t request query ~mode ~persist_push
        in
        (match reply with
        | Ok r -> R.Stats.record_served_reply (stats t) r
        | Error _ -> ());
        reply

let abandon t ~cookie =
  match Resync.Protocol.parse_cookie cookie with
  | Some (id, _) -> remove_session t id
  | None -> ()

(* An intermediate master answers Merkle walk steps from its own
   replica content, so anti-entropy cascades tier-by-tier: a leaf
   repairs against its node while the node independently repairs
   against its parent.  Same containment check and referral escape as
   [handle]; a [Fetch] mints a session whose sent-image table is the
   content being shipped, so the repaired downstream resumes
   incrementally. *)
let antientropy_serve t request query =
  match R.Filter_replica.containing_consumer t.replica query with
  | None -> Error (referral_error (Referral.make ~host:(upstream t) ()))
  | Some (stored, c) ->
      let content () =
        List.to_seq
          (R.Replica.eval_over_entries (schema t) query
             (Resync.Consumer.entries_seq c))
      in
      Ok
        (Ldap_antientropy.Exchange.serve ~content
           ~cookie:(fun () ->
             let session =
               new_session t query ~stored ~consumer:c ~persist_push:None
             in
             reset_seen session (List.of_seq (content ()));
             session_cookie session ~mode:Resync.Protocol.Poll)
           request)

(* Counts through the compiled matcher, building no entry. *)
let estimate t query =
  match R.Filter_replica.containing_consumer t.replica query with
  | Some (_, c) ->
      let m = Resync.Content.matcher (schema t) query in
      Seq.fold_left
        (fun n e -> if Resync.Content.matches m e then n + 1 else n)
        0 (Resync.Consumer.entries_seq c)
  | None -> 0

(* --- Persist relay --------------------------------------------------
   The replica's change observer: one upstream-applied content change,
   relayed to the persistent downstream sessions served from the same
   stored query.  With [Routed] dispatch only the sessions whose filter
   anchors the predicate index reports are classified exactly; the rest
   see [Stays_out] by the index's superset guarantee.  Either way every
   persist session of the stored query acknowledges the node's CSN and
   advances its spine cursor — the pushed actions carry everything the
   spine recorded (other stored queries advance independently — their
   own consumers define their synchronization point). *)
let relay t ~stored ~before ~after =
  if Hashtbl.length t.persist > 0 then begin
    let csn, rev =
      match consumer_of t stored with
      | Some c -> (node_csn c, store_rev c)
      | None -> (Csn.zero, 0)
    in
    let candidates =
      Option.map
        (fun idx -> C.Predicate_index.affected idx ~before ~after)
        t.dispatch
    in
    let dead = ref [] in
    Hashtbl.iter
      (fun id session ->
        if Query.equal session.stored stored then begin
          let candidate =
            match candidates with
            | None -> true
            | Some c -> C.Predicate_index.mem c id
          in
          (if candidate then
             let transition =
               Resync.Content.classify_m session.matcher ~before ~after
             in
             let actions =
               List.map (select_action session.query)
                 (Resync.Content.actions_of_transition transition)
             in
             let alive = ref true in
             List.iter
               (fun a ->
                 (match a with
                 | Resync.Action.Add e | Resync.Action.Modify e ->
                     note_sent session e
                 | Resync.Action.Delete dn ->
                     Hashtbl.remove session.seen (Dn.canonical dn)
                 | Resync.Action.Retain _ -> ());
                 (match session.persist_push with
                 | Some ch when !alive -> (
                     match ch.Resync.Protocol.pc_send a with
                     | Resync.Protocol.Push_ok -> ()
                     | Resync.Protocol.Push_stalled | Resync.Protocol.Push_gone ->
                         (* An intermediate node keeps no outbound
                            queue of its own: a downstream that stopped
                            draining (or reset) is cut here and resyncs
                            degraded when it reconnects.  Bounded
                            buffering lives at the root master. *)
                         alive := false;
                         ch.Resync.Protocol.pc_close ();
                         dead := id :: !dead)
                 | Some _ | None -> ());
                 R.Stats.record_served_push (stats t) a)
               actions);
          session.synced_csn <- csn;
          session.spine_pos <- rev
        end)
      t.persist;
    List.iter (remove_session t) !dead
  end

(* --- Scale reporting ------------------------------------------------- *)

let cursor_stats t = (t.inc_polls, t.inc_scanned, t.inc_rescans)

let cursor_depths t =
  Hashtbl.fold
    (fun _ s acc ->
      let rev = Option.fold ~none:0 ~some:store_rev (consumer_of t s.stored) in
      (rev - s.spine_pos) :: acc)
    t.sessions []

let seen_residency t =
  Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.seen) t.sessions 0

(* --- Construction --------------------------------------------------- *)

let endpoint t =
  {
    Resync.Transport.ep_schema = schema t;
    ep_handle = (fun ~push req q -> handle t ?push req q);
    ep_abandon = (fun ~cookie -> abandon t ~cookie);
    ep_estimate = (fun q -> estimate t q);
    ep_tree = (fun request q -> antientropy_serve t request q);
  }

let create ?(cache_capacity = 0) ?(dispatch = Resync.Master.Routed) transport
    ~host ~upstream =
  let replica =
    R.Filter_replica.create_over ~cache_capacity ~host transport
      ~master_host:upstream
  in
  let t =
    {
      replica;
      host;
      sessions = Hashtbl.create 16;
      persist = Hashtbl.create 16;
      dispatch =
        (match dispatch with
        | Resync.Master.Routed ->
            Some (C.Predicate_index.create (R.Filter_replica.schema replica))
        | Resync.Master.Naive -> None);
      next_id = 1;
      clock = 0;
      inc_polls = 0;
      inc_scanned = 0;
      inc_rescans = 0;
    }
  in
  R.Filter_replica.set_on_change replica (fun ~stored ~before ~after ->
      relay t ~stored ~before ~after);
  Resync.Transport.add_endpoint transport ~name:host (endpoint t);
  t

let install_cover t q = R.Filter_replica.install_filter t.replica q
let covers t = R.Filter_replica.stored_filters t.replica
let sync t = R.Filter_replica.sync t.replica
let sync_async t k = R.Filter_replica.sync_async t.replica k
let retarget t ~upstream = R.Filter_replica.retarget t.replica ~master_host:upstream
