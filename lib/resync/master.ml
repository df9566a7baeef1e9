(* [Ldap] has a [Server] of its own, the LDAP directory server. *)
module Resync_server = Server
open Ldap
module Server = Resync_server

type strategy = Session_history | Changelog | Tombstone
type dispatch = Server.dispatch = Routed | Naive

(* A session's per-session history: what it is owed since its last
   poll, classified at commit time (Session_history only). *)
type history = {
  mutable pending : Action.t list;  (* newest first *)
  mutable pending_len : int;  (* tracked so the high-water check is O(1) *)
}

(* The backend source: what the root (or a shard) master adds to the
   shared server. *)
type source = {
  backend : Backend.t;
  strategy : strategy;
  mutable store : Ldap_store.Store.t option;
  mutable history_limit : int option;
      (* high-water mark on one session's pending buffer; a session
         exceeding it is escalated to snapshot-diff on its next poll *)
}

type t = { src : source; server : history Server.t }

let backend t = t.src.backend

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
   the WAL's reused buffer, children in reverse field order;
   {!replay_record} reads them back. *)
let journal_w src emit =
  match src.store with Some s -> Ldap_store.Store.append_w s emit | None -> ()

let new_record w (s : history Server.session) =
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

(* --- Per-DN coalescing of buffered actions --------------------------
   A session's pending actions are replayed as the minimal update set:
   an entry that was added then deleted within the interval produces
   nothing; one that left and returned produces a single modify. *)

type net = Net_added of Entry.t | Net_modified of Entry.t | Net_deleted of Dn.t

let coalesce_table actions_oldest_first =
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

(* Most polls replay an empty or one-action history, which is already
   minimal: those skip the table. *)
let coalesce = function
  | [] | [ Action.Retain _ ] -> []
  | [ _ ] as single -> single
  | actions -> coalesce_table actions

(* --- Strategy-specific replies ----------------------------------------- *)

let filter_attrs (q : Query.t) = Filter.attributes (q.Query.filter :> Filter.t)

(* Changelog replay: only (kind, DN, changed attrs, current state) may
   be used — no pre-images. *)
let changelog_actions src (session : history Server.session) =
  let q = session.query in
  let attrs_of_interest = filter_attrs q in
  let touches_filter items =
    List.exists
      (fun (it : Update.mod_item) ->
        List.mem (String.lowercase_ascii it.Update.mod_attr) attrs_of_interest)
      items
  in
  let records = Backend.log_since src.backend session.synced_csn in
  let actions =
    List.concat_map
      (fun (r : Update.record) ->
        match r.Update.op with
        | Update.Delete dn ->
            (* Original attributes unknown: must propagate every delete. *)
            [ Action.Delete dn ]
        | Update.Add _ -> (
            match r.after with
            | Some e when Query.matches session.query e -> [ Action.Add e ]
            | Some _ | None -> [])
        | Update.Modify (dn, items) -> (
            match r.after with
            | Some e when Query.matches session.query e -> [ Action.Modify e ]
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
            | Some e when Query.matches session.query e -> deletes @ [ Action.Add e ]
            | Some _ | None -> deletes))
      records
  in
  List.map (Action.select q) (coalesce actions)

(* The DN a record makes disappear — a tombstone — if any: the deleted
   entry, or a renamed entry's old DN. *)
let tombstone (r : Update.record) =
  match r.op with
  | Update.Delete dn | Update.Modify_dn { dn; _ } -> Some dn
  | Update.Add _ | Update.Modify _ -> None

(* Tombstone replay: current entries (with modifyTimestamp) plus the
   DN-only tombstones of the log since the session's CSN, newest
   first. *)
let tombstone_actions src (session : history Server.session) =
  let q = session.query in
  let since = session.synced_csn in
  let deletes =
    List.fold_left
      (fun acc r ->
        match tombstone r with Some dn -> Action.Delete dn :: acc | None -> acc)
      []
      (Backend.log_since src.backend since)
  in
  let upserts_and_conservative =
    Backend.fold_entries src.backend ~init:[] ~f:(fun acc e ->
        if not (Content.changed_since since e) then acc
        else if Query.matches session.query e then Action.Add e :: acc
        else
          (* Changed entry outside the content: it may have just left
             it, and without a pre-image the master cannot tell. *)
          Action.Delete (Entry.dn e) :: acc)
  in
  List.map (Action.select q) (coalesce (deletes @ upserts_and_conservative))

let incremental src (s : history Server.session) =
  match src.strategy with
  | Session_history ->
      (* Pending actions were selected when buffered. *)
      let actions = coalesce (List.rev s.state.pending) in
      s.state.pending <- [];
      s.state.pending_len <- 0;
      Some actions
  | (Changelog | Tombstone) when not (Backend.log_complete_since src.backend s.synced_csn) ->
      (* Changelog and Tombstone both read the backend's update log.
         When it no longer reaches back to the session's CSN (trimmed
         history), the server falls back to eq. (3) instead of silently
         missing updates.  Session history is immune — its per-session
         buffers live outside the log. *)
      None
  | Changelog -> Some (changelog_actions src s)
  | Tombstone -> Some (tombstone_actions src s)

(* Session_history buffers each commit's actions per poll session.
   Past the high-water mark the buffered history is worth less than
   the memory it pins: it is dropped and the session retired, so the
   next poll finds no session and is served a degraded snapshot-diff
   from the cookie's CSN (eq. (3)) — the slow consumer pays the
   resync, not the master's heap. *)
let buffer src (s : history Server.session) actions =
  actions <> []
  && begin
       s.state.pending <- List.rev_append actions s.state.pending;
       s.state.pending_len <- s.state.pending_len + List.length actions;
       journal_w src (fun w -> pending_record w s.id actions);
       match src.history_limit with
       | Some limit when s.state.pending_len > limit ->
           s.state.pending <- [];
           s.state.pending_len <- 0;
           true
       | Some _ | None -> false
     end

let fresh () = { pending = []; pending_len = 0 }

(* The master admits every query; a reply that delivered the session's
   buffered history clears it on replay. *)
let server_source src =
  {
    Server.admit = (fun _ -> Ok (fresh ()));
    resumable = (fun _ -> true);
    sync_point = (fun _ -> Backend.csn src.backend);
    members = (fun _ q -> Content.current src.backend q);
    reset = (fun _ _ -> ());
    incremental = incremental src;
    buffer =
      (match src.strategy with
      | Session_history -> Some (buffer src)
      | Changelog | Tombstone -> None);
    pushed = (fun _ _ -> ());
    acked =
      (fun s ~history ->
        let clear = history && src.strategy = Session_history in
        journal_w src (fun w -> synced_record w s.id s.synced_csn ~clear));
    opened = (fun s -> journal_w src (fun w -> new_record w s));
    closed = (fun id -> journal_w src (fun w -> removed_record w id));
  }

let create ?(strategy = Session_history) ?(dispatch = Routed) backend =
  let src = { backend; strategy; store = None; history_limit = None } in
  let server = Server.create ~dispatch (server_source src) in
  Backend.subscribe backend (Server.dispatch server);
  { src; server }

let set_history_limit t limit = t.src.history_limit <- limit
let handle t request query = Server.handle t.server request query
let push_overflows t = Server.push_overflows t.server
let history_overflows t = Server.history_overflows t.server
let session_count t = Server.session_count t.server

let server t = t.server

(* --- Durable state --------------------------------------------------- *)

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
   elements in reverse order); no tail CRC is known, so the whole
   payload is checksummed. *)
let snapshot_emit t w =
  let sessions =
    Server.fold t.server List.cons []
    |> List.sort (fun (a : history Server.session) b -> Int.compare b.id a.id)
  in
  let m = DW.mark w in
  DW.close_seq w (DW.mark w);
  let ms = DW.mark w in
  List.iter
    (fun (s : history Server.session) ->
      let mse = DW.mark w in
      DW.integer w s.last_active;
      DW.integer w (Csn.to_int s.synced_csn);
      Store_codec.W.actions w (List.rev s.state.pending);
      DW.query w s.query;
      DW.integer w s.id;
      DW.close_seq w mse)
    sessions;
  DW.close_seq w ms;
  DW.integer w (Server.clock t.server);
  DW.integer w (Server.next_id t.server);
  DW.enum w (strategy_code t.src.strategy);
  DW.close_seq w m;
  (0, 0)

let checkpoint t =
  match t.src.store with
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
            (Server.install t.server ~id query (fresh ()) ~synced:csn
               ~last_active:(Server.clock t.server))
      | 1 -> Server.remove t.server (Der.read_integer inner)
      | 2 -> (
          let id = Der.read_integer inner in
          let actions = Store_codec.read_actions inner in
          match Server.find t.server id with
          | Some s ->
              s.state.pending <- List.rev_append actions s.state.pending;
              s.state.pending_len <- s.state.pending_len + List.length actions
          | None -> ())
      | 3 -> (
          let id = Der.read_integer inner in
          let csn = Csn.of_int (Der.read_integer inner) in
          let clear = Der.read_boolean inner in
          match Server.find t.server id with
          | Some s ->
              s.synced_csn <- csn;
              if clear then begin
                s.state.pending <- [];
                s.state.pending_len <- 0
              end
          | None -> ())
      | 4 -> ()
      | n ->
          raise
            (Ber_codec.Decode_error (Printf.sprintf "bad master record %d" n)))
    payload

let strategy_name = function
  | Session_history -> "session history"
  | Changelog -> "changelog"
  | Tombstone -> "tombstone"

let restore_snapshot t payload =
  let ( let* ) = Result.bind in
  let* strategy, next_id, clock, sessions = Ldap_store.Codec.decode read_snapshot payload in
  if strategy <> t.src.strategy then
    Error
      (Printf.sprintf "Master.open_store: the store holds a %s master, this one runs %s"
         (strategy_name strategy) (strategy_name t.src.strategy))
  else begin
    Server.restore t.server ~next_id ~clock;
    List.iter
      (fun (id, query, pending_oldest, synced, last_active) ->
        let h = { pending = List.rev pending_oldest; pending_len = List.length pending_oldest } in
        ignore (Server.install t.server ~id query h ~synced ~last_active))
      sessions;
    Ok ()
  end

let open_store t store =
  Ldap_store.Store.open_state store
    ~populated:(Server.session_count t.server > 0)
    ~snapshot:(restore_snapshot t) ~replay:(replay_record t)
    ~attach:(fun () -> t.src.store <- Some store)
    ~checkpoint:(fun () -> checkpoint t)

(* Per-session history residency: (total buffered actions, largest
   single session's buffer) — what the scale report shows operators. *)
let pending_stats t =
  Server.fold t.server
    (fun s (total, biggest) ->
      (total + s.state.pending_len, max biggest s.state.pending_len))
    (0, 0)

let history_size t =
  let log_since_oldest_session () =
    let oldest =
      Server.fold t.server
        (fun s acc -> min acc (Csn.to_int s.synced_csn))
        (Csn.to_int (Backend.csn t.src.backend))
    in
    Backend.log_since t.src.backend (Csn.of_int oldest)
  in
  match t.src.strategy with
  | Session_history ->
      Server.fold t.server (fun s acc -> acc + List.length s.state.pending) 0
  | Changelog -> List.length (log_since_oldest_session ())
  | Tombstone ->
      List.length (List.filter_map tombstone (log_since_oldest_session ()))
