open Ldap
module PI = Ldap_containment.Predicate_index

type dispatch = Routed | Naive

type 's session = {
  id : int;
  query : Query.t;
  state : 's;
  mutable synced_csn : Csn.t;
  mutable last_active : int;
  mutable push : Protocol.push_channel option;
  outq : Action.t Queue.t;
  mutable outq_len : int;
  mutable minted : Csn.t;
  mutable cookie : string;
}

type 's source = {
  admit : Query.t -> ('s, string) result;
  resumable : 's -> bool;
  sync_point : 's -> Csn.t;
  members : 's -> Query.t -> Entry.t list;
  reset : 's session -> Entry.t list -> unit;
  incremental : 's session -> Action.t list option;
  buffer : ('s session -> Action.t list -> bool) option;
  pushed : 's session -> Action.t -> unit;
  acked : 's session -> history:bool -> unit;
  opened : 's session -> unit;
  closed : int -> unit;
  served : Protocol.reply -> unit;
}

type 's t = {
  source : 's source;
  sessions : (int, 's session) Hashtbl.t;
  persist : (int, 's session) Hashtbl.t;
      (* sessions holding a push channel; every commit they are offered
         must advance their synced CSN even when it yields no actions *)
  stalled : (int, 's session) Hashtbl.t;
      (* persist sessions with a non-empty outbound queue, so drains
         and residency stats never scan the whole session table *)
  index : PI.t option;  (* [Routed] only *)
  mutable next_id : int;
  mutable clock : int;  (* protocol activity ticks *)
  mutable queue_limit : int option;
  mutable retiring : int list;
      (* sessions retired during a commit's dispatch: removal is
         deferred past the table iteration *)
  mutable history_overflows : int;
  mutable push_overflows : int;
  mutable push_resets : int;
  mutable push_queue_peak : int;
}

let create ?queue_limit ~dispatch source =
  {
    source;
    sessions = Hashtbl.create 16;
    persist = Hashtbl.create 16;
    stalled = Hashtbl.create 4;
    index = (match dispatch with Routed -> Some (PI.create ()) | Naive -> None);
    next_id = 1;
    clock = 0;
    queue_limit;
    retiring = [];
    history_overflows = 0;
    push_overflows = 0;
    push_resets = 0;
    push_queue_peak = 0;
  }


(* --- Session table ----------------------------------------------------
   The persist and stalled tables and the dispatch index shadow
   [sessions]; every membership change goes through these helpers. *)

let clear_outq t s =
  Queue.clear s.outq;
  s.outq_len <- 0;
  Hashtbl.remove t.stalled s.id

let set_persist t s push =
  match (s.push, push) with
  | None, None -> () (* a poll session polling again: [persist] never held it *)
  | _, Some _ ->
      s.push <- push;
      (* A replaced channel's undelivered queue belongs to the dead
         connection; the (re)establishment reply covers that interval,
         so the queue is dropped rather than replayed out of band. *)
      clear_outq t s;
      Hashtbl.replace t.persist s.id s
  | Some _, None ->
      s.push <- None;
      Hashtbl.remove t.persist s.id

let remove t id =
  match Hashtbl.find_opt t.sessions id with
  | None -> ()
  | Some s ->
      t.source.closed id;
      clear_outq t s;
      Hashtbl.remove t.sessions id;
      Hashtbl.remove t.persist id;
      Option.iter (fun idx -> PI.remove idx id) t.index

let install t ~id query state ~synced ~last_active =
  let s =
    {
      id;
      query;
      state;
      synced_csn = synced;
      last_active;
      push = None;
      outq = Queue.create ();
      outq_len = 0;
      minted = synced;
      cookie = Protocol.cookie_of ~id ~csn:synced;
    }
  in
  Hashtbl.replace t.sessions id s;
  Option.iter (fun idx -> PI.add idx id (query.Query.filter :> Filter.t)) t.index;
  if id >= t.next_id then t.next_id <- id + 1;
  s

let new_session t query state ~push =
  (* Session id 0 is the reserved foreign-session marker
     ({!Protocol.reparent_cookie}); no tier may allocate it, even if
     [next_id] wraps around. *)
  if t.next_id = 0 then t.next_id <- 1;
  let s =
    install t ~id:t.next_id query state ~synced:(t.source.sync_point state)
      ~last_active:t.clock
  in
  set_persist t s push;
  t.source.opened s;
  s

let find t id = Hashtbl.find_opt t.sessions id
let fold t f init = Hashtbl.fold (fun _ s acc -> f s acc) t.sessions init
let session_count t = Hashtbl.length t.sessions
let persistent_count t = Hashtbl.length t.persist
let next_id t = t.next_id
let clock t = t.clock

let restore t ~next_id ~clock =
  t.next_id <- next_id;
  t.clock <- clock

let expire t ~idle_limit =
  let cutoff = t.clock - idle_limit in
  fold t (fun s acc -> if s.last_active <= cutoff then s.id :: acc else acc) []
  |> List.iter (remove t)

(* --- Replies ----------------------------------------------------------
   The cookie string is minted again only when the session's CSN moved:
   most polls hand back the one they presented.  Poll replies carry it
   as the resume handle, persist replies as the reconnection handle —
   if the connection breaks, presenting it tells the server which CSN
   the consumer last acknowledged. *)

let cookie s =
  if not (Csn.equal s.minted s.synced_csn) then begin
    s.cookie <- Protocol.cookie_of ~id:s.id ~csn:s.synced_csn;
    s.minted <- s.synced_csn
  end;
  s.cookie

(* Every reply brings its session to the source's sync point. *)
let respond t s ~kind ~actions ~history =
  s.synced_csn <- t.source.sync_point s.state;
  t.source.acked s ~history;
  let r = Protocol.reply ~kind ~actions ~cookie:(Some (cookie s)) in
  t.source.served r;
  r

let initial t s =
  let entries = t.source.members s.state s.query in
  t.source.reset s entries;
  respond t s ~kind:Protocol.Initial_content
    ~actions:(List.map (fun e -> Action.Add e) entries)
    ~history:false

(* Degraded mode (eq. (3)): full entries for the members changed since
   [since] (or lacking a usable modifyTimestamp), [retain] for the
   rest; the consumer prunes everything not mentioned. *)
let degraded t s ~since =
  let entries = t.source.members s.state s.query in
  let actions =
    List.map
      (fun e ->
        if Content.changed_since since e then Action.Add e else Action.Retain (Entry.dn e))
      entries
  in
  t.source.reset s entries;
  respond t s ~kind:Protocol.Degraded ~actions ~history:false

let incremental t s =
  match t.source.incremental s with
  | Some actions -> respond t s ~kind:Protocol.Incremental ~actions ~history:true
  | None -> degraded t s ~since:s.synced_csn

(* --- Serving ---------------------------------------------------------- *)

(* Everything but a live session's own poll: admission first (a node
   refers what it cannot contain before it looks at the cookie), then
   initial content for a new subscription, or degraded mode from the
   cookie's CSN in a fresh session for one this server cannot continue
   — an unknown id (the reserved foreign id 0 included), a CSN other
   than the one the session was handed (a reply or pushed action was
   lost, so its history for that interval is gone), or a session the
   source refused to resume. *)
let admit t cookie parsed query ~push =
  match t.source.admit query with
  | Error _ as refused -> refused
  | Ok state -> (
      match (cookie, parsed) with
      | None, _ -> Ok (initial t (new_session t query state ~push))
      | Some _, None -> Error "malformed cookie"
      | Some _, Some (id, since) ->
          (match Hashtbl.find_opt t.sessions id with
          | Some s when Query.equal s.query query -> remove t id
          | Some _ | None -> ());
          Ok (degraded t (new_session t query state ~push) ~since))

let handle t ?push (request : Protocol.request) query =
  t.clock <- t.clock + 1;
  match request.Protocol.mode with
  | Protocol.Sync_end -> (
      match Option.map Protocol.parse_cookie request.cookie with
      | None -> Error "sync_end requires a cookie"
      | Some None -> Error "malformed cookie"
      | Some (Some (id, _)) ->
          remove t id;
          Ok (Protocol.reply ~kind:Protocol.Incremental ~actions:[] ~cookie:None))
  | (Protocol.Poll | Protocol.Persist) as mode -> (
      if mode = Protocol.Persist && Option.is_none push then
        Error "persist mode requires a push channel"
      else
        let push = if mode = Protocol.Persist then push else None in
        let parsed =
          match request.cookie with Some c -> Protocol.parse_cookie c | None -> None
        in
        match parsed with
        | Some (id, csn) -> (
            (* A live session presenting the CSN it was handed, for its
               own query, goes straight to its history. *)
            match Hashtbl.find_opt t.sessions id with
            | Some s
              when Csn.equal csn s.synced_csn && Query.equal s.query query
                   && t.source.resumable s.state ->
                s.last_active <- t.clock;
                set_persist t s push;
                Ok (incremental t s)
            | Some _ | None -> admit t request.cookie parsed query ~push)
        | None -> admit t request.cookie parsed query ~push)

let abandon t ~cookie =
  match Protocol.parse_cookie cookie with Some (id, _) -> remove t id | None -> ()

(* Merkle anti-entropy service: walk steps are answered from the
   members the query admits — "the content I should hold" — with the
   tree rebuilt per request.  A [Fetch] mints a poll session at the
   sync point whose content is the one shipped, so the consumer that
   installs the entries resumes incremental polling from there. *)
let antientropy_serve t request query =
  match t.source.admit query with
  | Error _ as refused -> refused
  | Ok state ->
      let shipped = ref None in
      let content () =
        List.to_seq
          (match !shipped with Some l -> l | None -> t.source.members state query)
      in
      Ok
        (Ldap_antientropy.Exchange.serve ~content
           ~cookie:(fun () ->
             let entries = t.source.members state query in
             let s = new_session t query state ~push:None in
             t.source.reset s entries;
             shipped := Some entries;
             Some (cookie s))
           request)

(* --- Bounded persist-push queues --------------------------------------
   A persist channel's send can stall (receiver not draining) or fail
   (connection reset).  Stalled actions go to the session's outbound
   queue, bounded by [queue_limit]: past the bound the channel is
   closed and the session retired, so the consumer's reconnection
   escalates to a degraded resync — the stalled consumer pays the
   resync, not the server's heap.  A node is bound 0: its first stalled
   push cuts the session. *)

let set_queue_limit t limit = t.queue_limit <- limit

let enqueue t s a =
  Queue.push a s.outq;
  s.outq_len <- s.outq_len + 1;
  if s.outq_len = 1 then Hashtbl.replace t.stalled s.id s;
  if s.outq_len > t.push_queue_peak then t.push_queue_peak <- s.outq_len

(* Sends the queued backlog, oldest first; answers the channel status
   left after the attempt. *)
let drain t s ch =
  let status = ref `Ok in
  while !status = `Ok && s.outq_len > 0 do
    match ch.Protocol.pc_send (Queue.peek s.outq) with
    | Protocol.Push_ok ->
        ignore (Queue.pop s.outq);
        s.outq_len <- s.outq_len - 1;
        if s.outq_len = 0 then Hashtbl.remove t.stalled s.id
    | Protocol.Push_stalled -> status := `Stalled
    | Protocol.Push_gone -> status := `Gone
  done;
  !status

let defer_remove t s =
  if not (List.mem s.id t.retiring) then t.retiring <- s.id :: t.retiring

(* Retires a persist session whose channel is unusable (reset, or queue
   past the bound).  Removal is deferred when called mid-dispatch. *)
let retire t s ch ~deferred =
  ch.Protocol.pc_close ();
  clear_outq t s;
  if deferred then defer_remove t s else remove t s.id

let flush_pushes t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.stalled []
  |> List.iter (fun s ->
         match s.push with
         | None -> clear_outq t s
         | Some ch -> (
             match drain t s ch with
             | `Ok | `Stalled -> ()
             | `Gone ->
                 t.push_resets <- t.push_resets + 1;
                 retire t s ch ~deferred:false))

let push_queue_stats t =
  Hashtbl.fold
    (fun _ s (total, biggest) -> (total + s.outq_len, max biggest s.outq_len))
    t.stalled (0, 0)

let push_queue_peak t = t.push_queue_peak
let push_overflows t = t.push_overflows
let push_resets t = t.push_resets
let history_overflows t = t.history_overflows

(* --- Commit dispatch ---------------------------------------------------
   One committed change, offered to the sessions it may concern.  A
   session classifies it by its query's membership test
   ([Query.matches]); transmitted entries honour the session query's
   attribute selection. *)

let classify s ~before ~after =
  List.map (Action.select s.query)
    (Content.actions_of_transition (Content.classify_m s.query ~before ~after))

let ack t s csn =
  s.synced_csn <- csn;
  t.source.acked s ~history:false

let deliver t s ch ~csn ~before ~after =
  let status =
    List.fold_left
      (fun st a ->
        t.source.pushed s a;
        match st with
        | `Gone -> `Gone
        | `Stalled ->
            enqueue t s a;
            `Stalled
        | `Ok -> (
            match ch.Protocol.pc_send a with
            | Protocol.Push_ok -> `Ok
            | Protocol.Push_stalled ->
                enqueue t s a;
                `Stalled
            | Protocol.Push_gone -> `Gone))
      (drain t s ch) (classify s ~before ~after)
  in
  match status with
  | `Gone ->
      (* Write after reset: the consumer is gone, and everything sent
         since the reset was lost anyway.  Retiring the session makes
         its reconnection a degraded resync instead of pushing into the
         void. *)
      t.push_resets <- t.push_resets + 1;
      retire t s ch ~deferred:true
  | `Ok | `Stalled -> (
      (* Every commit — even one producing no actions for this filter —
         is pushed through up to its CSN, so the session must not pin
         retained history at an older CSN.  Queued actions still count
         as progress: either they drain later or the session is
         retired, and a reconnection resyncs degraded from the CSN the
         consumer acknowledges. *)
      ack t s csn;
      match t.queue_limit with
      | Some limit when s.outq_len > limit ->
          t.push_overflows <- t.push_overflows + 1;
          retire t s ch ~deferred:true
      | Some _ | None -> ())

let visit t s ~csn ~before ~after =
  match (s.push, t.source.buffer) with
  | Some ch, _ -> deliver t s ch ~csn ~before ~after
  | None, Some buffer ->
      if buffer s (classify s ~before ~after) then begin
        t.history_overflows <- t.history_overflows + 1;
        defer_remove t s
      end
  | None, None -> ()

let retire_deferred t =
  match t.retiring with
  | [] -> ()
  | ids ->
      t.retiring <- [];
      List.iter (remove t) ids

let dispatch t (r : Update.record) =
  (match t.index with
  | None ->
      Hashtbl.iter
        (fun _ s -> visit t s ~csn:r.csn ~before:r.before ~after:r.after)
        t.sessions
  | Some idx ->
      (* Only sessions whose filter anchors the change's images hit can
         change content; the rest see [Stays_out] by the index's
         superset guarantee, and the persist sessions among them still
         acknowledge the CSN. *)
      let affected = PI.affected idx ~before:r.before ~after:r.after in
      PI.iter
        (fun id ->
          match Hashtbl.find_opt t.sessions id with
          | Some s -> visit t s ~csn:r.csn ~before:r.before ~after:r.after
          | None -> ())
        affected;
      Hashtbl.iter (fun id s -> if not (PI.mem affected id) then ack t s r.csn) t.persist);
  retire_deferred t

let relay t ~only ~csn ~before ~after =
  let affected = Option.map (fun idx -> PI.affected idx ~before ~after) t.index in
  Hashtbl.iter
    (fun id s ->
      if only s then
        match (affected, s.push) with
        | Some a, _ when not (PI.mem a id) -> ack t s csn
        | _, Some ch -> deliver t s ch ~csn ~before ~after
        | _, None -> ())
    t.persist;
  retire_deferred t
