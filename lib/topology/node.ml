open Ldap
module Resync = Ldap_resync
module R = Ldap_replication
module Server = Resync.Server

(* A downstream session tracks what it has sent as a cursor over the
   stored consumer's content-store change spine plus a table of the
   sent images — never a copy of the content.  Serving a poll walks
   only the DNs mutated since [spine_pos] (O(diff)); the table
   arbitrates Add vs Modify vs no-op per changed DN by comparing the
   current image with the sent one: physically first (an unchanged
   stored entry is the same record), then by {!Entry.equal}.  A sent
   image is usually the stored entry itself, so the table costs a
   binding per member, not an entry. *)
type cursor = {
  stored : Query.t;  (* the node's stored query this session is served from *)
  mutable consumer : Resync.Consumer.t;
      (* the stored query's consumer, resolved at admission and again
         by a poll that finds [stamp] out of date *)
  mutable stamp : int;  (* the replica generation [consumer] was resolved at *)
  mutable seen : (string, Entry.t) Hashtbl.t;
      (* canonical DN -> the selected image last sent *)
  mutable spine_pos : int;  (* store revision this session has consumed *)
}

(* Serving cost counters, the O(diff) evidence the scale sweep gates
   on. *)
type cost = {
  mutable polls : int;  (* incremental polls served *)
  mutable scanned : int;  (* DNs/entries examined serving them *)
  mutable rescans : int;  (* cursor fell off the spine: full diff *)
}

type t = {
  replica : R.Filter_replica.t;
  host : string;
  cost : cost;
  server : cursor Server.t;
}

let replica t = t.replica
let host t = t.host
let upstream t = R.Filter_replica.master_host t.replica
let stats t = R.Filter_replica.stats t.replica
let session_count t = Server.session_count t.server

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

let refer replica =
  Error (referral_error (Referral.make ~host:(R.Filter_replica.master_host replica) ()))

(* --- The spine-cursor source ----------------------------------------- *)

let consumer_of replica stored = R.Filter_replica.consumer_for replica stored
let store_rev c = Content_store.rev (Resync.Consumer.content c)

(* The node's own synchronization point for a stored query: the CSN of
   the cookie its upstream consumer holds.  All CSNs originate at the
   root backend, so this is directly comparable to whatever any
   downstream cookie carries. *)
let node_csn consumer =
  match Resync.Consumer.cookie_csn consumer with Some csn -> csn | None -> Csn.zero

(* Entries are already selected when noted: the table holds the image
   as sent downstream, not the stored one. *)
let note_sent (st : cursor) e = Hashtbl.replace st.seen (Dn.canonical (Entry.dn e)) e

(* Whether [img] is what was sent as [sent]: {!Entry.equal}, the
   equivalence class the entry's content digest hashes, decided
   without hashing. *)
let unchanged img sent = img == sent || Entry.equal img sent

(* A session's whole content, by scan: its query is usually the stored
   query itself, whose postings would hold every entry, and a store
   that only serves polls keeps none. *)
let members st q =
  R.Replica.eval_over_entries Schema.default q
    (Resync.Consumer.entries_seq st.consumer)

(* A session handed its whole content: the cursor is pinned at the
   store revision that content was read at, and the sent-image table
   holds exactly it. *)
let reset (s : cursor Server.session) entries =
  s.state.spine_pos <- store_rev s.state.consumer;
  s.state.seen <- Hashtbl.create (max 64 (2 * List.length entries));
  List.iter (note_sent s.state) entries

(* Incremental replies stream the stored consumer's change spine from
   the session's cursor: only the DNs mutated since its last poll are
   examined, the [seen] table resolving each to Add / Modify /
   Delete / no-op — the node keeps no per-session action history and
   no per-session content copy, the replica's store {e is} the
   history.  The spine names slot ids, so each is read by id and its
   DN is the slot's own.  A cursor that fell off the trimmed spine
   rebuilds by one full diff against the table and resumes streaming.
   Deletes first, like the master's coalescer. *)
let incremental_from_spine cost (session : cursor Server.session) st changed =
  let select = Query.attr_list session.query.Query.attrs in
  let seen = session.state.seen in
  let deletes = ref [] and upserts = ref [] in
  List.iter
    (fun id ->
      cost.scanned <- cost.scanned + 1;
      let key = Dn.canonical (Content_store.dn_of st id) in
      let now =
        match Content_store.get st id with
        | Some e when Query.matches session.query e ->
            Some (Entry.select e select)
        | Some _ | None -> None
      in
      match (now, Hashtbl.find_opt seen key) with
      | Some img, Some sent ->
          if not (unchanged img sent) then begin
            note_sent session.state img;
            upserts := Resync.Action.Modify img :: !upserts
          end
      | Some img, None ->
          note_sent session.state img;
          upserts := Resync.Action.Add img :: !upserts
      | None, Some sent ->
          Hashtbl.remove seen key;
          deletes := Resync.Action.Delete (Entry.dn sent) :: !deletes
      | None, None -> ())
    changed;
  List.rev !deletes @ List.rev !upserts

let incremental_by_rescan cost (session : cursor Server.session) =
  cost.rescans <- cost.rescans + 1;
  let current = members session.state session.query in
  let fresh = Hashtbl.create (max 64 (2 * List.length current)) in
  let upserts =
    List.filter_map
      (fun e ->
        cost.scanned <- cost.scanned + 1;
        let key = Dn.canonical (Entry.dn e) in
        let action =
          match Hashtbl.find_opt session.state.seen key with
          | Some sent when unchanged e sent -> None
          | Some _ -> Some (Resync.Action.Modify e)
          | None -> Some (Resync.Action.Add e)
        in
        Hashtbl.replace fresh key e;
        action)
      current
  in
  let deletes =
    Hashtbl.fold
      (fun key sent acc ->
        cost.scanned <- cost.scanned + 1;
        if Hashtbl.mem fresh key then acc else Resync.Action.Delete (Entry.dn sent) :: acc)
      session.state.seen []
  in
  session.state.seen <- fresh;
  deletes @ upserts

let incremental cost (s : cursor Server.session) =
  cost.polls <- cost.polls + 1;
  let st = Resync.Consumer.content s.state.consumer in
  let pos = s.state.spine_pos and rev = Content_store.rev st in
  s.state.spine_pos <- rev;
  if pos >= rev then Some [] (* the cursor sits at the store's revision *)
  else
    match Content_store.changes_since st pos with
    | Some changed -> Some (incremental_from_spine cost s st changed)
    | None -> Some (incremental_by_rescan cost s)

(* Admission by containment: a subscription is served from a stored
   query proved to contain it, or referred to this node's upstream.
   Containment holds while the stored query stays installed, so a live
   session's own poll skips it and only checks that. *)
let admit replica query =
  match R.Filter_replica.containing_consumer replica query with
  | None -> refer replica
  | Some (stored, consumer) ->
      Ok
        {
          stored;
          consumer;
          stamp = R.Filter_replica.generation replica;
          seen = Hashtbl.create 1;
          spine_pos = store_rev consumer;
        }

(* A cursor below every store's floor: the next reply rescans. *)
let off_spine = -1

(* The replica's generation moves with every install, removal and
   recovered filter — everything that can retire a stored query's
   consumer — so a poll at the generation its session resolved its
   consumer at skips the lookup.  A new consumer brings a new store,
   whose spine the cursor is not on: the session's next reply diffs
   the whole content against its sent-image table. *)
let resumable replica st =
  let generation = R.Filter_replica.generation replica in
  st.stamp = generation
  ||
  match consumer_of replica st.stored with
  | Some c ->
      if c != st.consumer then begin
        st.consumer <- c;
        st.spine_pos <- off_spine
      end;
      st.stamp <- generation;
      true
  | None -> false

(* A relayed change's actions update the sent-image table whether or
   not the push gets through: a cut session resyncs degraded anyway. *)
let pushed (s : cursor Server.session) = function
  | Resync.Action.Add e | Resync.Action.Modify e -> note_sent s.state e
  | Resync.Action.Delete dn -> Hashtbl.remove s.state.seen (Dn.canonical dn)
  | Resync.Action.Retain _ -> ()

let source replica cost =
  {
    Server.admit = admit replica;
    resumable = resumable replica;
    sync_point = (fun st -> node_csn st.consumer);
    members;
    reset;
    incremental = incremental cost;
    buffer = None;
    pushed;
    acked = (fun _ ~history:_ -> ());
    opened = ignore;
    closed = ignore;
  }

(* --- Serving -------------------------------------------------------- *)

(* Counts the store search's matches, building no entry. *)
let estimate t query =
  match R.Filter_replica.containing_consumer t.replica query with
  | Some (_, c) ->
      Content_store.search (Resync.Consumer.content c) query ~init:0 ~f:(fun n _ -> n + 1)
  | None -> 0

(* --- Persist relay --------------------------------------------------
   The replica's change observer: one upstream-applied content change,
   relayed to the persistent downstream sessions served from the same
   stored query.  Every persist session of the stored query
   acknowledges the node's CSN and advances its spine cursor — the
   pushed actions carry everything the spine recorded (other stored
   queries advance independently — their own consumers define their
   synchronization point). *)
let relay t ~stored ~before ~after =
  if Server.persistent_count t.server > 0 then
    let csn, rev =
      match consumer_of t.replica stored with
      | Some c -> (node_csn c, store_rev c)
      | None -> (Csn.zero, 0)
    in
    Server.relay t.server
      ~only:(fun s ->
        Query.equal s.state.stored stored
        && begin
             s.state.spine_pos <- rev;
             true
           end)
      ~csn ~before ~after

(* --- Scale reporting ------------------------------------------------- *)

let cursor_stats t = (t.cost.polls, t.cost.scanned, t.cost.rescans)

let cursor_depths t =
  Server.fold t.server
    (fun s acc ->
      let c = consumer_of t.replica s.state.stored in
      (Option.fold ~none:0 ~some:store_rev c - s.state.spine_pos) :: acc)
    []

let seen_residency t =
  Server.fold t.server (fun s acc -> acc + Hashtbl.length s.state.seen) 0

(* --- Construction --------------------------------------------------- *)

let create ?(dispatch = Server.Routed) transport ~host ~upstream =
  let replica = R.Filter_replica.create_over ~host transport ~master_host:upstream in
  let cost = { polls = 0; scanned = 0; rescans = 0 } in
  let server =
    Server.create ~queue_limit:0 ~dispatch (source replica cost)
  in
  let t = { replica; host; cost; server } in
  R.Filter_replica.set_on_change replica (fun ~stored ~before ~after ->
      relay t ~stored ~before ~after);
  Resync.Transport.add_endpoint transport ~name:host
    (Resync.Transport.serve server ~estimate:(estimate t));
  t

let install_cover t q = R.Filter_replica.install_filter t.replica q
let sync t = R.Filter_replica.sync t.replica
let sync_async t k = R.Filter_replica.sync_async t.replica k
let retarget t ~upstream = R.Filter_replica.retarget t.replica ~master_host:upstream
