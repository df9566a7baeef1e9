open Ldap

type t = {
  query : Query.t;
  entries : Content_store.t;
  mutable cookie : string option;
  mutable parsed : string;  (* the cookie [csn] was read from, compared with [==] *)
  mutable csn : Csn.t option;
  mutable conn : Transport.conn option;
  mutable loopback : (Master.t * Transport.t) option;
  mutable on_change :
    (before:Entry.t option -> after:Entry.t option -> unit) option;
  mutable store : Ldap_store.Store.t option;
  mutable image : image option;  (* checkpoint cache, only with a store *)
}

(* What the last checkpoint encoded, indexed by content-store slot id:
   each live slot's DER entry image ([absent] for a tombstone or a slot
   not yet seen), each live slot's canonical DN, and the live slot ids
   in ascending DN order — all as of content revision [rev]. *)
and image = {
  mutable der : string array;
  mutable canon : string array;
  mutable order : int array;
  mutable rev : int;
}

type outcome = {
  reply : Protocol.reply;
  attempts : int;
  backoff : int;
  resynced : bool;
}

type sync_error =
  | Exhausted of { attempts : int; last : Network.failure }
  | Rejected of string

let sync_error_to_string = function
  | Rejected msg -> msg
  | Exhausted { attempts; last } ->
      Printf.sprintf "sync failed after %d attempts: %s" attempts
        (Network.failure_to_string last)

let create query =
  {
    query;
    entries = Content_store.create ();
    cookie = None;
    parsed = "";
    csn = None;
    conn = None;
    loopback = None;
    on_change = None;
    store = None;
    image = None;
  }

let query t = t.query
let cookie t = t.cookie
let set_cookie t c = t.cookie <- c

(* Re-parsed only when the cookie string changes physically: a node
   hands back the string it was shown while its CSN stands. *)
let cookie_csn t =
  match t.cookie with
  | None -> None
  | Some c ->
      if c != t.parsed then begin
        t.parsed <- c;
        t.csn <- Option.map snd (Protocol.parse_cookie c)
      end;
      t.csn

let set_on_change t f = t.on_change <- Some f

let notify t ~before ~after =
  match (t.on_change, before, after) with
  | None, _, _ | Some _, None, None -> ()
  | Some f, _, _ -> f ~before ~after

let apply_action t = function
  | Action.Add e | Action.Modify e ->
      let dn = Entry.dn e in
      let before = Content_store.find t.entries dn in
      Content_store.upsert t.entries e;
      notify t ~before ~after:(Some e)
  | Action.Delete dn ->
      let before = Content_store.find t.entries dn in
      Content_store.remove t.entries dn;
      notify t ~before ~after:None
  | Action.Retain _ -> ()

(* Drops every entry not satisfying [keep], reporting each prune to the
   observer — a pruned entry is a content change even though no delete
   action was transmitted for it (eq. (3)'s "everything neither
   retained nor added").  Victims are collected first: the store must
   not be mutated under its own iterator. *)
let prune t ~keep =
  let victims =
    Content_store.fold t.entries ~init:[] ~f:(fun acc e ->
        if keep (Entry.dn e) then acc else e :: acc)
  in
  List.iter
    (fun e ->
      Content_store.remove t.entries (Entry.dn e);
      notify t ~before:(Some e) ~after:None)
    victims

(* --- Durability ------------------------------------------------------ *)

module Der = Ber_codec.Der
module DW = Der.W

(* [record w x] emits the record; the closure exists only when there
   is a store to write to. *)
let journal_w t record x =
  match t.store with
  | Some s -> Ldap_store.Store.append_w s (fun w -> record w x)
  | None -> ()

(* WAL record kinds: a whole reply (cookie + actions as one record —
   the atomicity boundary), or one pushed persist action.  Emitted
   backwards into the WAL's reused buffer (see {!Ber_codec.Der.W}). *)
let reply_record w reply =
  let m = DW.mark w in
  Store_codec.W.reply w reply;
  DW.enum w 0;
  DW.close_seq w m

let action_record w a =
  let m = DW.mark w in
  Store_codec.W.action w a;
  DW.enum w 1;
  DW.close_seq w m

let apply_reply t (reply : Protocol.reply) =
  (* Write-ahead: the whole reply — new cookie and all actions — is
     journaled as one WAL record before any in-memory mutation, so a
     crash mid-apply replays cookie and content together or not at
     all; the durable cookie can never run ahead of durable content. *)
  journal_w t reply_record reply;
  (* The cookie is stored before the actions are applied: an observer
     registered with {!set_on_change} fires during application, and
     anything it derives from this consumer's state — e.g. the CSN an
     intermediate node stamps on relayed downstream pushes — must see
     the reply's CSN, not the previous one. *)
  (match reply.Protocol.cookie with
  | Some _ as c -> t.cookie <- c
  | None -> ());
  (match reply.Protocol.kind with
  | Protocol.Initial_content -> prune t ~keep:(fun _ -> false)
  | Protocol.Incremental -> ()
  | Protocol.Degraded ->
      (* Only retained or re-sent entries survive. *)
      let keep =
        List.fold_left
          (fun acc a ->
            match a with
            | Action.Add e | Action.Modify e -> Dn.Set.add (Entry.dn e) acc
            | Action.Retain dn -> Dn.Set.add dn acc
            | Action.Delete dn -> Dn.Set.remove dn acc)
          Dn.Set.empty reply.Protocol.actions
      in
      prune t ~keep:(fun dn -> Dn.Set.mem dn keep));
  List.iter (apply_action t) reply.Protocol.actions

(* --- Synchronization over a transport -------------------------------- *)

let default_attempts = 4

(* Ticks the first retry waits; each later one doubles it. *)
let backoff = 1

(* Whether an established session recovered through a full or degraded
   resynchronization rather than a normal incremental replay. *)
let recovered ~had_cookie (reply : Protocol.reply) =
  had_cookie && reply.Protocol.kind <> Protocol.Incremental

(* The one retry loop, for polls and persist connects alike: [send]
   makes one attempt, and attempt [i] failing waits
   [backoff * 2^(i-1)] ticks on a {!Network.after} timer before the
   next, so the [backoff] stat equals the virtual time spent waiting. *)
let retrying ~max_attempts t transport ~send k =
  let had_cookie = t.cookie <> None in
  let rec attempt n waited =
    send (function
      | Ok reply ->
          apply_reply t reply;
          k
            (Ok
               {
                 reply;
                 attempts = n;
                 backoff = waited;
                 resynced = recovered ~had_cookie reply;
               })
      | Error (Transport.Server msg) -> k (Error (Rejected msg))
      | Error (Transport.Net failure) ->
          if n >= max_attempts then
            k (Error (Exhausted { attempts = n; last = failure }))
          else
            let wait = backoff * (1 lsl (n - 1)) in
            Network.after (Transport.network transport) ~delay:wait (fun () ->
                attempt (n + 1) (waited + wait)))
  in
  attempt 1 0

let poll_async ~max_attempts ?(from = "consumer") t transport ~host k =
  retrying ~max_attempts t transport k ~send:(fun k ->
      let request = { Protocol.mode = Protocol.Poll; cookie = t.cookie } in
      Transport.exchange_async transport ~host ~from request t.query k)

let sync_async ?from t transport ~host k =
  poll_async ~max_attempts:default_attempts ?from t transport ~host k

let sync_over ?(max_attempts = default_attempts) ?from t transport ~host =
  Network.await (Transport.network transport) (poll_async ~max_attempts ?from t transport ~host)

(* --- Merkle anti-entropy --------------------------------------------- *)

(* Each application is funnelled through {!apply_reply} as a synthetic
   incremental reply, so the shipped entries, the deletions and the
   server's resume cookie land in one WAL record — merkle repair gets
   the same cookie/content atomicity as a polled reply. *)
let merkle_sync ?config ?(from = "consumer") t transport ~host =
  let old_cookie = t.cookie in
  let result =
    Ldap_antientropy.Exchange.reconcile ?config
      ~local:(fun () -> Content_store.to_seq t.entries)
      ~apply:(fun ~upserts ~deletes ~cookie ->
        let actions =
          List.map (fun dn -> Action.Delete dn) deletes
          @ List.map (fun e -> Action.Add e) upserts
        in
        apply_reply t (Protocol.reply ~kind:Protocol.Incremental ~actions ~cookie))
      ~rpc:(fun request ->
        Transport.tree_exchange transport ~host ~from request t.query
        |> Result.map_error Transport.error_to_string)
      ()
  in
  (* The reconciliation minted a fresh session; release the one the old
     cookie pinned so the server does not keep history for it. *)
  (match result with
  | Ok { Ldap_antientropy.Exchange.converged = true; _ } -> (
      match old_cookie with
      | Some c when t.cookie <> old_cookie -> (
          match Transport.endpoint transport host with
          | Some ep -> ep.Transport.ep_abandon ~cookie:c
          | None -> ())
      | _ -> ())
  | _ -> ());
  result

(* --- Persist mode ---------------------------------------------------- *)

let persist_alive t =
  match t.conn with Some c -> Transport.conn_alive c | None -> false

let pause_connection t =
  match t.conn with Some c -> Transport.pause c | None -> ()

let resume_connection t =
  match t.conn with Some c -> Transport.resume c | None -> ()

let connect_persist ?(max_attempts = default_attempts) ?(from = "consumer")
    ?(observe = fun (_ : Action.t) -> ()) t transport ~host =
  let push a =
    journal_w t action_record a;
    apply_action t a;
    observe a
  in
  Network.await (Transport.network transport)
    (retrying ~max_attempts t transport ~send:(fun k ->
         let request = { Protocol.mode = Protocol.Persist; cookie = t.cookie } in
         Transport.connect_async transport ~host ~from ~push request t.query
           (function
           | Ok (reply, conn) ->
               (match t.conn with Some old -> Transport.kill old | None -> ());
               t.conn <- Some conn;
               k (Ok reply)
           | Error e -> k (Error e))))

let ensure_persist ?from t transport ~host =
  if persist_alive t then Ok None
  else
    match connect_persist ?from t transport ~host with
    | Ok outcome -> Ok (Some outcome)
    | Error e -> Error e

(* --- Co-located compatibility path ----------------------------------- *)

let loopback_for t master =
  match t.loopback with
  | Some (m, transport) when m == master -> transport
  | Some _ | None ->
      let transport = Transport.loopback master in
      t.loopback <- Some (master, transport);
      transport

let sync t master =
  match sync_over t (loopback_for t master) ~host:Transport.loopback_host with
  | Ok outcome -> Ok outcome.reply
  | Error e -> Error (sync_error_to_string e)

(* --- Durable state --------------------------------------------------- *)

let attach_store t store = t.store <- Some store

let detach_store t =
  t.store <- None;
  t.image <- None

(* Compared with [==]: a DER entry image is never empty. *)
let absent = ""

let sorted_live im =
  let ids = ref [] in
  for id = Array.length im.der - 1 downto 0 do
    if im.der.(id) != absent then ids := id :: !ids
  done;
  let order = Array.of_list !ids in
  Array.sort (fun a b -> String.compare im.canon.(a) im.canon.(b)) order;
  order

let encode im id e =
  im.der.(id) <- Der.entry e;
  im.canon.(id) <- Dn.canonical (Entry.dn e)

let rebuild entries =
  let n = Content_store.interned entries in
  let im =
    { der = Array.make n absent; canon = Array.make n absent; order = [||];
      rev = Content_store.rev entries }
  in
  for id = 0 to n - 1 do
    Option.iter (encode im id) (Content_store.get entries id)
  done;
  im.order <- sorted_live im;
  im

let grow a n = Array.append a (Array.make (n - Array.length a) absent)

(* Brings the image up to the store's revision by re-encoding only the
   slots the change spine names; the order is re-sorted only when a
   slot joined or left the live set.  False, with the image untouched,
   when the spine no longer reaches back to [im.rev]: the changes are
   unknown and the caller rebuilds. *)
let refresh entries im =
  match Content_store.changes_since entries im.rev with
  | None -> false
  | Some dns ->
      let n = Content_store.interned entries in
      if n > Array.length im.der then begin
        im.der <- grow im.der n;
        im.canon <- grow im.canon n
      end;
      let moved = ref false in
      List.iter
        (fun dn ->
          let id = Option.get (Content_store.id_of entries dn) in
          match Content_store.get entries id with
          | Some e ->
              if im.der.(id) == absent then moved := true;
              encode im id e
          | None ->
              if im.der.(id) != absent then begin
                moved := true;
                im.der.(id) <- absent
              end)
        dns;
      if !moved then im.order <- sorted_live im;
      im.rev <- Content_store.rev entries;
      true

let checkpoint t =
  match t.store with
  | None -> ()
  | Some s ->
      let im =
        match t.image with
        | Some im when refresh t.entries im -> im
        | Some _ | None -> rebuild t.entries
      in
      t.image <- Some im;
      Ldap_store.Store.checkpoint_w s (fun w ->
          let m = DW.mark w in
          let me = DW.mark w in
          (* Backwards writer: entries prepended in descending DN order
             so the image lists them ascending — byte-identical to the
             Dn.Map-era snapshots whatever the store's slot order. *)
          for i = Array.length im.order - 1 downto 0 do
            Ldap_compile.Wbuf.prepend_string w im.der.(im.order.(i))
          done;
          DW.close_seq w me;
          DW.option w (DW.octets w) t.cookie;
          DW.close_seq w m)

let replay_record t payload =
  Ldap_store.Codec.decode
    (fun c ->
      let inner = Der.read_seq c in
      match Der.read_enum inner with
      | 0 -> apply_reply t (Store_codec.read_reply inner)
      | 1 -> apply_action t (Store_codec.read_action inner)
      | n ->
          raise
            (Ber_codec.Decode_error (Printf.sprintf "bad consumer record %d" n)))
    payload

let recover query store =
  let ( let* ) = Result.bind in
  let recovery = Ldap_store.Store.recover store in
  let t = create query in
  let* () =
    match recovery.Ldap_store.Store.snapshot with
    | None -> Ok ()
    | Some payload ->
        Ldap_store.Codec.decode
          (fun c ->
            let inner = Der.read_seq c in
            t.cookie <- Store_codec.read_cookie_opt inner;
            let entries = Der.read_seq inner in
            while not (Der.at_end entries) do
              Content_store.upsert t.entries (Der.read_entry entries)
            done)
          payload
  in
  let* () =
    List.fold_left
      (fun acc payload ->
        let* () = acc in
        replay_record t payload)
      (Ok ()) recovery.Ldap_store.Store.records
  in
  t.store <- Some store;
  Ok (t, recovery)

let entries t = Content_store.to_list t.entries
let entries_seq t = Content_store.to_seq t.entries
let content t = t.entries

let dns t =
  Content_store.fold t.entries ~init:Dn.Set.empty ~f:(fun acc e ->
      Dn.Set.add (Entry.dn e) acc)

let size t = Content_store.size t.entries
