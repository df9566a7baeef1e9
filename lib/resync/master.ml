open Ldap

type strategy = Session_history | Changelog | Tombstone
type dispatch = Routed | Naive

type session = {
  id : int;
  query : Query.t;
  matcher : Content.matcher;  (* query compiled once, reused per update *)
  mutable pending : Action.t list;  (* newest first; Session_history only *)
  mutable pending_len : int;  (* tracked so the high-water check is O(1) *)
  mutable synced_csn : Csn.t;
  mutable persist_push : Protocol.push_channel option;
  outq : Action.t Queue.t;
      (* persist notifications the channel reported [Push_stalled] for;
         oldest first, drained before anything new is sent *)
  mutable outq_len : int;
  mutable last_active : int;
}

type t = {
  backend : Backend.t;
  strategy : strategy;
  sessions : (int, session) Hashtbl.t;
  dispatch : Ldap_containment.Predicate_index.t option;  (* [Routed] only *)
  persist : (int, session) Hashtbl.t;
      (* sessions holding a push channel; every update must advance
         their synced CSN even when it yields no actions *)
  mutable next_id : int;
  mutable clock : int;  (* protocol activity ticks *)
  mutable store : Ldap_store.Store.t option;
  mutable history_limit : int option;
      (* high-water mark on one session's pending buffer; a session
         exceeding it is escalated to snapshot-diff on its next poll *)
  mutable overflowed : int list;
      (* sessions that blew the mark during the current update's
         dispatch — removal is deferred past the session-table
         iteration and performed at the end of [on_update] *)
  stalled : (int, session) Hashtbl.t;
      (* persist sessions with a non-empty outbound queue, so drains
         and residency stats never scan the whole session table *)
  mutable persist_queue_limit : int option;
      (* bound on one persist session's outbound queue; past it the
         session is retired instead of the queue growing with drift *)
  mutable hwm_overflows : int;  (* pending buffers dropped at the HWM *)
  mutable push_overflows : int;  (* persist queues that blew the bound *)
  mutable push_resets : int;  (* persist channels found dead on send *)
  mutable push_queue_peak : int;  (* largest outbound queue ever seen *)
}

let backend t = t.backend
let strategy t = t.strategy

(* --- Durable journal --------------------------------------------------
   Session-table transitions are journaled as WAL records so a
   restarted master still recognizes the cookies it handed out:

   - [New] (id, query, synced CSN) on session creation,
   - [Removed] on sync_end/abandon/expiry/disruption,
   - [Pending] appended per-session history (Session_history),
   - [Synced] acknowledged-CSN advance, optionally clearing pending.

   Replay mirrors each mutation exactly and skips kind 4, a tombstone
   that older logs carry (the Tombstone strategy reads the backend's
   log, so the master journals none); persistent push channels are
   process state and die with the process — reconnection presents the
   cookie, which the recovered session table answers incrementally. *)

module Der = Ber_codec.Der
module DW = Der.W

(* Journal records are emitted with the backwards writer straight into
   the WAL's reused buffer — children in reverse field order, images
   byte-identical to the old [Der.seq] spellings, so logs written by
   either codec replay in {!replay_record}. *)
let journal_w t emit =
  match t.store with Some s -> Ldap_store.Store.append_w s emit | None -> ()

let new_record w (s : session) =
  let m = DW.mark w in
  DW.integer w (Csn.to_int s.synced_csn);
  DW.query w s.query;
  DW.integer w s.id;
  DW.enum w 0;
  DW.close_seq w m

let removed_record w id =
  let m = DW.mark w in
  DW.integer w id;
  DW.enum w 1;
  DW.close_seq w m

let pending_record w id actions =
  (* Oldest first on the wire; [pending] holds newest first. *)
  let m = DW.mark w in
  Store_codec.W.actions w actions;
  DW.integer w id;
  DW.enum w 2;
  DW.close_seq w m

let synced_record w id csn ~clear =
  let m = DW.mark w in
  DW.boolean w clear;
  DW.integer w (Csn.to_int csn);
  DW.integer w id;
  DW.enum w 3;
  DW.close_seq w m

(* The [persist] table and the dispatch index shadow [sessions]; all
   membership changes go through these helpers to keep them in sync. *)
let clear_outq t session =
  Queue.clear session.outq;
  session.outq_len <- 0;
  Hashtbl.remove t.stalled session.id

let set_persist t session push =
  session.persist_push <- push;
  match push with
  | Some _ ->
      (* A replaced channel's undelivered queue belongs to the dead
         connection; the (re)establishment reply covers that interval,
         so the queue is dropped rather than replayed out of band. *)
      clear_outq t session;
      Hashtbl.replace t.persist session.id session
  | None -> Hashtbl.remove t.persist session.id

let remove_session t id =
  if Hashtbl.mem t.sessions id then journal_w t (fun w -> removed_record w id);
  (match Hashtbl.find_opt t.sessions id with
  | Some s -> clear_outq t s
  | None -> ());
  Hashtbl.remove t.sessions id;
  Hashtbl.remove t.persist id;
  Hashtbl.remove t.stalled id;
  Option.iter
    (fun idx -> Ldap_containment.Predicate_index.remove idx id)
    t.dispatch

let cookie_of id csn = Protocol.cookie_of ~id ~csn
let parse_cookie = Protocol.parse_cookie

(* Transmitted entries honour the session query's attribute selection,
   exactly like search results do. *)
let select_action (q : Query.t) = function
  | Action.Add e -> Action.Add (Entry.select e (Query.attr_list q.Query.attrs))
  | Action.Modify e -> Action.Modify (Entry.select e (Query.attr_list q.Query.attrs))
  | (Action.Delete _ | Action.Retain _) as a -> a

(* --- Bounded persist-push queues -------------------------------------
   A persist channel's send can stall (receiver not draining) or fail
   (connection reset).  Stalled actions go to the session's outbound
   queue, bounded by [persist_queue_limit]: past the bound the channel
   is closed and the session retired, so the consumer's reconnection
   escalates to a degraded resync — the stalled leaf pays the resync,
   not the master's heap (the same shape as the pending-history HWM). *)

let enqueue_push t session a =
  Queue.push a session.outq;
  session.outq_len <- session.outq_len + 1;
  if session.outq_len = 1 then Hashtbl.replace t.stalled session.id session;
  if session.outq_len > t.push_queue_peak then
    t.push_queue_peak <- session.outq_len

(* Sends the queued backlog, oldest first; answers the channel status
   left after the attempt. *)
let drain_outq t session ch =
  let status = ref `Ok in
  while !status = `Ok && session.outq_len > 0 do
    match ch.Protocol.pc_send (Queue.peek session.outq) with
    | Protocol.Push_ok ->
        ignore (Queue.pop session.outq);
        session.outq_len <- session.outq_len - 1;
        if session.outq_len = 0 then Hashtbl.remove t.stalled session.id
    | Protocol.Push_stalled -> status := `Stalled
    | Protocol.Push_gone -> status := `Gone
  done;
  !status

let defer_remove t session =
  if not (List.mem session.id t.overflowed) then
    t.overflowed <- session.id :: t.overflowed

(* Retire a persist session whose channel is unusable (reset, or queue
   past the bound).  Removal is deferred when called mid-dispatch. *)
let retire_persist t session ch ~deferred =
  ch.Protocol.pc_close ();
  clear_outq t session;
  if deferred then defer_remove t session else remove_session t session.id

(* Classify a committed update against one session, via the session's
   compiled matcher — the bytecode program built once at session
   creation rather than re-walking the filter AST per update. *)
let classify_for t (record : Update.record) session =
  let transition =
    Content.classify_m session.matcher ~before:record.before ~after:record.after
  in
  let actions =
    List.map (select_action session.query) (Content.actions_of_transition transition)
  in
  match session.persist_push with
  | Some ch -> (
      let status =
        List.fold_left
          (fun st a ->
            match st with
            | `Gone -> `Gone
            | `Stalled ->
                enqueue_push t session a;
                `Stalled
            | `Ok -> (
                match ch.Protocol.pc_send a with
                | Protocol.Push_ok -> `Ok
                | Protocol.Push_stalled ->
                    enqueue_push t session a;
                    `Stalled
                | Protocol.Push_gone -> `Gone))
          (drain_outq t session ch)
          actions
      in
      match status with
      | `Gone ->
          (* Write after reset: the consumer is gone, and everything
             sent since the reset was lost anyway.  Retiring the
             session makes its reconnection a degraded resync instead
             of the master pushing into the void. *)
          t.push_resets <- t.push_resets + 1;
          retire_persist t session ch ~deferred:true
      | `Ok | `Stalled -> (
          (* Every update — even one producing no actions for this
             filter — is pushed through up to its CSN, so the session
             must not pin retained history at an older CSN.  Queued
             actions still count as progress: either they drain later
             or the session is retired, and a reconnection resyncs
             degraded from the CSN the consumer acknowledges. *)
          session.synced_csn <- record.csn;
          journal_w t (fun w -> synced_record w session.id record.csn ~clear:false);
          match t.persist_queue_limit with
          | Some limit when session.outq_len > limit ->
              t.push_overflows <- t.push_overflows + 1;
              retire_persist t session ch ~deferred:true
          | Some _ | None -> ()))
  | None ->
      if actions <> [] && t.strategy = Session_history then begin
        session.pending <- List.rev_append actions session.pending;
        session.pending_len <- session.pending_len + List.length actions;
        journal_w t (fun w -> pending_record w session.id actions);
        match t.history_limit with
        | Some limit when session.pending_len > limit ->
            (* Past the high-water mark the buffered history is worth
               less than the memory it pins: drop it and let the next
               poll find no session, which serves a degraded
               snapshot-diff from the cookie's CSN (eq. (3)) — the
               slow consumer pays the resync, not the master's heap.
               Removal is deferred: this runs inside the session-table
               iteration. *)
            session.pending <- [];
            session.pending_len <- 0;
            t.hwm_overflows <- t.hwm_overflows + 1;
            defer_remove t session
        | Some _ | None -> ()
      end

let on_update t (record : Update.record) =
  (match t.dispatch with
  | None ->
      (* Naive dispatch: classify against every live session. *)
      Hashtbl.iter (fun _ session -> classify_for t record session) t.sessions
  | Some idx ->
      (* Routed dispatch: only sessions whose filter anchors are hit by
         the update's before/after images can change content, so only
         those are classified.  The rest see [Stays_out] by the index's
         superset guarantee — no actions; persistent sessions among
         them still acknowledge the CSN, exactly as the naive path's
         empty classification would. *)
      let affected =
        Ldap_containment.Predicate_index.affected idx ~before:record.before
          ~after:record.after
      in
      Ldap_containment.Predicate_index.iter
        (fun id ->
          match Hashtbl.find_opt t.sessions id with
          | Some session -> classify_for t record session
          | None -> ())
        affected;
      Hashtbl.iter
        (fun id session ->
          if not (Ldap_containment.Predicate_index.mem affected id) then begin
            session.synced_csn <- record.csn;
            journal_w t (fun w -> synced_record w id record.csn ~clear:false)
          end)
        t.persist);
  match t.overflowed with
  | [] -> ()
  | ids ->
      t.overflowed <- [];
      List.iter (remove_session t) ids

let create ?history_limit ?persist_queue_limit ?(strategy = Session_history)
    ?(dispatch = Routed) backend =
  let t =
    {
      backend;
      strategy;
      sessions = Hashtbl.create 16;
      dispatch =
        (match dispatch with
        | Routed -> Some (Ldap_containment.Predicate_index.create (Backend.schema backend))
        | Naive -> None);
      persist = Hashtbl.create 16;
      next_id = 1;
      clock = 0;
      store = None;
      history_limit;
      overflowed = [];
      stalled = Hashtbl.create 4;
      persist_queue_limit;
      hwm_overflows = 0;
      push_overflows = 0;
      push_resets = 0;
      push_queue_peak = 0;
    }
  in
  Backend.subscribe backend (on_update t);
  t

let history_limit t = t.history_limit
let set_history_limit t limit = t.history_limit <- limit
let persist_queue_limit t = t.persist_queue_limit
let set_persist_queue_limit t limit = t.persist_queue_limit <- limit

(* Re-attempts every stalled session's backlog — what a driver calls
   after a paused consumer resumes.  Channels found dead retire their
   session on the spot (no dispatch is running here). *)
let flush_pushes t =
  let stalled = Hashtbl.fold (fun _ s acc -> s :: acc) t.stalled [] in
  List.iter
    (fun session ->
      match session.persist_push with
      | None -> clear_outq t session
      | Some ch -> (
          match drain_outq t session ch with
          | `Ok | `Stalled -> ()
          | `Gone ->
              t.push_resets <- t.push_resets + 1;
              retire_persist t session ch ~deferred:false))
    stalled

let push_queue_stats t =
  Hashtbl.fold
    (fun _ s (total, biggest) -> (total + s.outq_len, max biggest s.outq_len))
    t.stalled (0, 0)

let push_queue_peak t = t.push_queue_peak
let push_overflows t = t.push_overflows
let push_resets t = t.push_resets
let history_overflows t = t.hwm_overflows

(* --- Per-DN coalescing of buffered actions --------------------------
   A session's pending actions are replayed as the minimal update set:
   an entry that was added then deleted within the interval produces
   nothing; one that left and returned produces a single modify. *)

type net = Net_added of Entry.t | Net_modified of Entry.t | Net_deleted of Dn.t

let coalesce actions_oldest_first =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let set dn state =
    let key = Dn.canonical dn in
    if not (Hashtbl.mem tbl key) then order := key :: !order;
    Hashtbl.replace tbl key state
  in
  let get dn = Hashtbl.find_opt tbl (Dn.canonical dn) in
  let drop dn = Hashtbl.remove tbl (Dn.canonical dn) in
  List.iter
    (fun action ->
      match action with
      | Action.Retain _ -> ()
      | Action.Add e -> (
          let dn = Entry.dn e in
          match get dn with
          | None | Some (Net_added _) -> set dn (Net_added e)
          | Some (Net_modified _) ->
              set dn (Net_modified e)
          | Some (Net_deleted _) ->
              (* In content at interval start, left, and returned:
                 the net effect is a modify. *)
              set dn (Net_modified e))
      | Action.Modify e -> (
          let dn = Entry.dn e in
          match get dn with
          | None | Some (Net_modified _) | Some (Net_deleted _) ->
              set dn (Net_modified e)
          | Some (Net_added _) -> set dn (Net_added e))
      | Action.Delete dn -> (
          match get dn with
          | None | Some (Net_modified _) -> set dn (Net_deleted dn)
          | Some (Net_added _) ->
              (* Entered and left within the interval: nothing to send. *)
              drop dn
          | Some (Net_deleted _) -> ()))
    actions_oldest_first;
  (* Deletes first so DN reuse (rename chains) replays safely. *)
  let deletes = ref [] and upserts = ref [] in
  List.iter
    (fun key ->
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some (Net_added e) -> upserts := Action.Add e :: !upserts
      | Some (Net_modified e) -> upserts := Action.Modify e :: !upserts
      | Some (Net_deleted dn) -> deletes := Action.Delete dn :: !deletes)
    (List.rev !order);
  List.rev !deletes @ List.rev !upserts

(* --- Strategy-specific incremental replies --------------------------- *)

let filter_attrs (q : Query.t) = Filter.attributes q.Query.filter

let member schema q e = Content.member schema q e

(* Changelog replay: only (kind, DN, changed attrs, current state) may
   be used — no pre-images. *)
let changelog_actions t session =
  let schema = Backend.schema t.backend in
  let q = session.query in
  let attrs_of_interest = filter_attrs q in
  let touches_filter items =
    List.exists
      (fun (it : Update.mod_item) ->
        List.mem (String.lowercase_ascii it.Update.mod_attr) attrs_of_interest)
      items
  in
  let records = Backend.log_since t.backend session.synced_csn in
  let actions =
    List.concat_map
      (fun (r : Update.record) ->
        match r.Update.op with
        | Update.Delete dn ->
            (* Original attributes unknown: must propagate every delete. *)
            [ Action.Delete dn ]
        | Update.Add _ -> (
            match r.after with
            | Some e when member schema q e -> [ Action.Add e ]
            | Some _ | None -> [])
        | Update.Modify (dn, items) -> (
            match r.after with
            | Some e when member schema q e -> [ Action.Modify e ]
            | Some e when touches_filter items ->
                (* Not currently in content but the modification
                   touched a filter attribute: the entry might have
                   matched before, so a conservative delete is needed. *)
                [ Action.Delete (Entry.dn e) ]
            | Some _ -> []
            | None -> [ Action.Delete dn ])
        | Update.Modify_dn { dn; _ } -> (
            (* Old DN vanishes; membership of the old entry unknown. *)
            let deletes = [ Action.Delete dn ] in
            match r.after with
            | Some e when member schema q e -> deletes @ [ Action.Add e ]
            | Some _ | None -> deletes))
      records
  in
  List.map (select_action q) (coalesce actions)

(* The DN a record makes disappear — a tombstone — if any: the deleted
   entry, or a renamed entry's old DN. *)
let tombstone (r : Update.record) =
  match r.op with
  | Update.Delete dn | Update.Modify_dn { dn; _ } -> Some dn
  | Update.Add _ | Update.Modify _ -> None

(* Tombstone replay: current entries (with modifyTimestamp) plus the
   DN-only tombstones of the log since the session's CSN, newest
   first. *)
let tombstone_actions t session =
  let schema = Backend.schema t.backend in
  let q = session.query in
  let since = session.synced_csn in
  let deletes =
    List.fold_left
      (fun acc r ->
        match tombstone r with Some dn -> Action.Delete dn :: acc | None -> acc)
      []
      (Backend.log_since t.backend since)
  in
  let upserts_and_conservative =
    Backend.fold_entries t.backend ~init:[] ~f:(fun acc e ->
        if not (Content.changed_since since e) then acc
        else if member schema q e then Action.Add e :: acc
        else
          (* Changed entry outside the content: it may have just left
             it, and without a pre-image the master cannot tell. *)
          Action.Delete (Entry.dn e) :: acc)
  in
  List.map (select_action q) (coalesce (deletes @ upserts_and_conservative))

(* Degraded mode (eq. (3)): full entries for changed members, retain
   for unchanged members. *)
let degraded_actions t q ~since =
  List.map
    (fun e -> if Content.changed_since since e then Action.Add e else Action.Retain (Entry.dn e))
    (Content.current t.backend q)

(* The one place a session is built: entered in the session table and
   the dispatch index, with no push channel.  [pending_oldest] is its
   buffered history, oldest first. *)
let install_session t ~id query ~synced ~pending_oldest ~last_active =
  let session =
    {
      id;
      query;
      matcher = Content.matcher (Backend.schema t.backend) query;
      pending = List.rev pending_oldest;
      pending_len = List.length pending_oldest;
      synced_csn = synced;
      persist_push = None;
      outq = Queue.create ();
      outq_len = 0;
      last_active;
    }
  in
  Hashtbl.replace t.sessions id session;
  Option.iter
    (fun idx -> Ldap_containment.Predicate_index.add idx id query.Query.filter)
    t.dispatch;
  session

let new_session t query ~persist_push =
  (* Session id 0 is the reserved foreign-session marker
     ({!Protocol.reparent_cookie}); a master must never allocate it,
     even if [next_id] wraps around. *)
  if t.next_id = 0 then t.next_id <- 1;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let session =
    install_session t ~id query ~synced:(Backend.csn t.backend) ~pending_oldest:[]
      ~last_active:t.clock
  in
  set_persist t session persist_push;
  journal_w t (fun w -> new_record w session);
  session

(* Poll replies carry the resume cookie; persist replies carry the
   same cookie as a reconnection handle — if the connection breaks,
   presenting it tells the master which CSN the consumer last
   acknowledged, so reconnection can resume (or degrade) instead of
   reloading. *)
let session_cookie session ~mode =
  match mode with
  | Protocol.Poll | Protocol.Persist -> Some (cookie_of session.id session.synced_csn)
  | Protocol.Sync_end -> None

let advance_synced t session ~clear =
  let csn = Backend.csn t.backend in
  session.synced_csn <- csn;
  journal_w t (fun w -> synced_record w session.id csn ~clear)

let initial_reply t session ~mode =
  let entries = Content.current t.backend session.query in
  let actions = List.map (fun e -> Action.Add e) entries in
  advance_synced t session ~clear:false;
  Protocol.reply ~kind:Protocol.Initial_content ~actions ~cookie:(session_cookie session ~mode)

let incremental_reply t session ~mode =
  let from_log actions_of =
    (* Changelog and Tombstone both read the backend's update log.
       When it no longer reaches back to the session's CSN (trimmed
       history), fall back to eq. (3) instead of silently missing
       updates.  Session history is immune — its per-session buffers
       live outside the log. *)
    if Backend.log_complete_since t.backend session.synced_csn then
      (Protocol.Incremental, actions_of t session)
    else
      ( Protocol.Degraded,
        List.map (select_action session.query)
          (degraded_actions t session.query ~since:session.synced_csn) )
  in
  let kind, actions =
    match t.strategy with
    | Session_history ->
        (* Pending actions were selected when buffered. *)
        let a = coalesce (List.rev session.pending) in
        session.pending <- [];
        session.pending_len <- 0;
        (Protocol.Incremental, a)
    | Changelog -> from_log changelog_actions
    | Tombstone -> from_log tombstone_actions
  in
  advance_synced t session ~clear:(t.strategy = Session_history);
  Protocol.reply ~kind ~actions ~cookie:(session_cookie session ~mode)

let degraded_reply t query ~since ~mode ~persist_push =
  let session = new_session t query ~persist_push in
  let actions = degraded_actions t query ~since in
  advance_synced t session ~clear:false;
  Protocol.reply ~kind:Protocol.Degraded ~actions ~cookie:(session_cookie session ~mode)

let handle t ?push (request : Protocol.request) query =
  t.clock <- t.clock + 1;
  let mode = request.Protocol.mode in
  let result =
    match mode with
    | Protocol.Sync_end -> (
        match request.cookie with
        | None -> Error "sync_end requires a cookie"
        | Some c -> (
            match parse_cookie c with
            | None -> Error "malformed cookie"
            | Some (id, _) ->
                remove_session t id;
                Ok (Protocol.reply ~kind:Protocol.Incremental ~actions:[] ~cookie:None)))
    | Protocol.Poll | Protocol.Persist -> (
        if mode = Protocol.Persist && Option.is_none push then
          Error "persist mode requires a push channel"
        else
          let persist_push = if mode = Protocol.Persist then push else None in
          match request.cookie with
          | None ->
              let session = new_session t query ~persist_push in
              session.last_active <- t.clock;
              Ok (initial_reply t session ~mode)
          | Some c -> (
              match parse_cookie c with
              | None -> Error "malformed cookie"
              | Some (id, csn) -> (
                  match Hashtbl.find_opt t.sessions id with
                  | Some session
                    when Query.equal session.query query
                         && Csn.equal csn session.synced_csn ->
                      session.last_active <- t.clock;
                      set_persist t session persist_push;
                      Ok (incremental_reply t session ~mode)
                  | Some session when Query.equal session.query query ->
                      (* The consumer acknowledges a CSN other than the
                         one this session advanced to: a reply (or a
                         run of pushed actions) never arrived.  The
                         per-session history for that interval is gone,
                         so replaying [pending] would silently diverge —
                         resynchronize degraded from the CSN the
                         consumer actually holds. *)
                      remove_session t session.id;
                      Ok (degraded_reply t query ~since:csn ~mode ~persist_push)
                  | Some _ | None ->
                      (* Unknown or mismatched session: degraded mode
                         resynchronization from the cookie's CSN. *)
                      Ok (degraded_reply t query ~since:csn ~mode ~persist_push))))
  in
  result

(* Merkle anti-entropy service: walk steps are answered from the
   backend's current content under the replica's filter — the same
   "content I should hold" predicate containment gives a search — with
   the tree rebuilt lazily per request.  A [Fetch] mints a fresh
   session at the current CSN, so the consumer that installs the
   shipped entries resumes incremental polling from there. *)
let antientropy_serve t request query =
  let select e = Entry.select e (Query.attr_list query.Query.attrs) in
  Ok
    (Ldap_antientropy.Exchange.serve
       ~content:(fun () ->
         Seq.map select (List.to_seq (Content.current t.backend query)))
       ~cookie:(fun () ->
         let session = new_session t query ~persist_push:None in
         session_cookie session ~mode:Protocol.Poll)
       request)

let abandon t ~cookie =
  match parse_cookie cookie with
  | Some (id, _) -> remove_session t id
  | None -> ()

let expire_sessions t ~idle_limit =
  let cutoff = t.clock - idle_limit in
  let stale =
    Hashtbl.fold
      (fun id s acc -> if s.last_active <= cutoff then id :: acc else acc)
      t.sessions []
  in
  List.iter (remove_session t) stale

let schedule_expiry t engine ~every ~until ~idle_limit =
  Ldap_sim.Engine.every engine ~every ~until (fun () ->
      expire_sessions t ~idle_limit)

let session_count t = Hashtbl.length t.sessions

let persistent_count t = Hashtbl.length t.persist

(* --- Durable state --------------------------------------------------- *)

let attach_store t store = t.store <- Some store
let store t = t.store

let strategy_code = function
  | Session_history -> 0
  | Changelog -> 1
  | Tombstone -> 2

let strategy_of_code = function
  | 0 -> Session_history
  | 1 -> Changelog
  | 2 -> Tombstone
  | n -> raise (Ber_codec.Decode_error (Printf.sprintf "bad strategy %d" n))

(* Snapshot layout: SEQ [ strategy; next_id; clock; sessions;
   tombstones ].  Sessions are sorted by id so the image is
   deterministic regardless of hash-table iteration order.  The
   tombstones SEQ keeps the layout: it is written empty and skipped on
   read, so older images that hold a list still restore.  Emitted
   backwards into the store's checkpoint buffer (fields and list
   elements in reverse order). *)
let snapshot_emit t w =
  let sessions =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.sort (fun a b -> Int.compare b.id a.id)
  in
  let m = DW.mark w in
  DW.close_seq w (DW.mark w);
  let ms = DW.mark w in
  List.iter
    (fun s ->
      let mse = DW.mark w in
      DW.integer w s.last_active;
      DW.integer w (Csn.to_int s.synced_csn);
      Store_codec.W.actions w (List.rev s.pending);
      DW.query w s.query;
      DW.integer w s.id;
      DW.close_seq w mse)
    sessions;
  DW.close_seq w ms;
  DW.integer w t.clock;
  DW.integer w t.next_id;
  DW.enum w (strategy_code t.strategy);
  DW.close_seq w m

let checkpoint t =
  match t.store with
  | None -> ()
  | Some s -> Ldap_store.Store.checkpoint_w s (snapshot_emit t)

let read_snapshot c =
  let inner = Der.read_seq c in
  let strat = strategy_of_code (Der.read_enum inner) in
  let next_id = Der.read_integer inner in
  let clock = Der.read_integer inner in
  let sessions =
    let seq = Der.read_seq inner in
    let rec go acc =
      if Der.at_end seq then List.rev acc
      else begin
        let s = Der.read_seq seq in
        let id = Der.read_integer s in
        let query = Der.read_query s in
        let pending_oldest = Store_codec.read_actions s in
        let synced = Csn.of_int (Der.read_integer s) in
        let last_active = Der.read_integer s in
        go ((id, query, pending_oldest, synced, last_active) :: acc)
      end
    in
    go []
  in
  ignore (Der.read_seq inner : Der.cursor);
  (strat, next_id, clock, sessions)

let replay_record t payload =
  Ldap_store.Codec.decode
    (fun c ->
      let inner = Der.read_seq c in
      match Der.read_enum inner with
      | 0 ->
          let id = Der.read_integer inner in
          let query = Der.read_query inner in
          let csn = Csn.of_int (Der.read_integer inner) in
          ignore
            (install_session t ~id query ~synced:csn ~pending_oldest:[]
               ~last_active:t.clock);
          if id >= t.next_id then t.next_id <- id + 1
      | 1 -> remove_session t (Der.read_integer inner)
      | 2 -> (
          let id = Der.read_integer inner in
          let actions = Store_codec.read_actions inner in
          match Hashtbl.find_opt t.sessions id with
          | Some s ->
              s.pending <- List.rev_append actions s.pending;
              s.pending_len <- s.pending_len + List.length actions
          | None -> ())
      | 3 -> (
          let id = Der.read_integer inner in
          let csn = Csn.of_int (Der.read_integer inner) in
          let clear = Der.read_boolean inner in
          match Hashtbl.find_opt t.sessions id with
          | Some s ->
              s.synced_csn <- csn;
              if clear then begin
                s.pending <- [];
                s.pending_len <- 0
              end
          | None -> ())
      | 4 -> ()
      | n ->
          raise
            (Ber_codec.Decode_error (Printf.sprintf "bad master record %d" n)))
    payload

let recover ?strategy ?dispatch backend store =
  let ( let* ) = Result.bind in
  let recovery = Ldap_store.Store.recover store in
  let* snap =
    match recovery.Ldap_store.Store.snapshot with
    | None -> Ok None
    | Some payload ->
        Result.map Option.some (Ldap_store.Codec.decode read_snapshot payload)
  in
  let strategy = match snap with Some (s, _, _, _) -> Some s | None -> strategy in
  let t = create ?strategy ?dispatch backend in
  (match snap with
  | None -> ()
  | Some (_, next_id, clock, sessions) ->
      t.next_id <- next_id;
      t.clock <- clock;
      List.iter
        (fun (id, query, pending_oldest, synced, last_active) ->
          ignore (install_session t ~id query ~synced ~pending_oldest ~last_active))
        sessions);
  let* () =
    List.fold_left
      (fun acc payload ->
        let* () = acc in
        replay_record t payload)
      (Ok ()) recovery.Ldap_store.Store.records
  in
  t.store <- Some store;
  Ok (t, recovery)

(* Per-session history residency: (total buffered actions, largest
   single session's buffer) — what the scale report shows operators. *)
let pending_stats t =
  Hashtbl.fold
    (fun _ s (total, biggest) ->
      (total + s.pending_len, max biggest s.pending_len))
    t.sessions (0, 0)

let history_size t =
  let log_since_oldest_session () =
    let oldest =
      Hashtbl.fold
        (fun _ s acc -> min acc (Csn.to_int s.synced_csn))
        t.sessions (Csn.to_int (Backend.csn t.backend))
    in
    Backend.log_since t.backend (Csn.of_int oldest)
  in
  match t.strategy with
  | Session_history ->
      Hashtbl.fold (fun _ s acc -> acc + List.length s.pending) t.sessions 0
  | Changelog -> List.length (log_since_oldest_session ())
  | Tombstone ->
      List.length (List.filter_map tombstone (log_since_oldest_session ()))
