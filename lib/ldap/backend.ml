(* Every entry of every naming context lives in one [Content_store],
   which also holds the attribute postings searches read candidates
   from: the backend declares its [indexed] attributes (and
   [objectclass]) to it.  The store's slot ids key the one table that
   stands in for a tree here: child links, an id vector per slot, for
   one-level and subtree walks and the leaf and parent checks.  A slot
   id is assigned when its DN is first stored, which needs a live
   parent, and is never reused, so ascending slot order visits parents
   before their children.

   Writes are keyed by slot id: an update looks its target's DN up
   once (and a new DN's parent once), then replaces, inserts or clears
   at the ids it found through [Content_store.set] and [clear], and
   builds its post-image, modifyTimestamp included, in one
   [Entry.edit].  Recovery ([restore_entry], [replay_record]) goes the
   same way. *)

module Attr_id = Ldap_compile.Attr_id

type t = {
  mutable contexts : Dn.t list;  (* suffixes, deepest first *)
  estore : Content_store.t;  (* every entry and its postings; its spine is the update log *)
  mutable kids : Id_vec.t array;  (* slot id -> child slot ids, [Id_vec.empty] for none *)
  mutable referral_dns : Dn.Set.t;  (* referral objects, for references *)
  mutable csn : Csn.t;
  mutable subscribers : (Update.record -> unit) array;  (* registration order *)
  mutable subscriber_count : int;
}

let create ?(indexed = []) () =
  {
    contexts = [];
    estore = Content_store.create ~indexed:(List.map Attr_id.intern ("objectclass" :: indexed)) ();
    kids = Array.make 64 Id_vec.empty;
    referral_dns = Dn.Set.empty;
    csn = Csn.zero;
    subscribers = [||];
    subscriber_count = 0;
  }

let no_such_object dn = Error ("no such object: " ^ Dn.to_string dn)
let no_context dn = Error (Printf.sprintf "no naming context for %S" (Dn.to_string dn))

(* --- Slots, child links and referrals ------------------------------- *)

let find t dn = Content_store.find t.estore dn
let entry_at t id = Option.get (Content_store.get t.estore id)

(* The slot id interned for [dn], or -1: the one lookup of a DN. *)
let slot t dn = match Content_store.id_of t.estore dn with Some id -> id | None -> -1
let is_live t id = id >= 0 && Option.is_some (Content_store.get t.estore id)

let live_id t dn =
  let id = slot t dn in
  if is_live t id then Some id else None

let kids t id = if id < Array.length t.kids then t.kids.(id) else Id_vec.empty

let link t parent id =
  let n = Array.length t.kids in
  if parent >= n then t.kids <- Array.append t.kids (Array.make (max n (parent + 1 - n)) Id_vec.empty);
  t.kids.(parent) <- Id_vec.add t.kids.(parent) id

let is_leaf t id = Id_vec.card (kids t id) = 0

let context_for t dn =
  (* contexts are sorted deepest first, so the first covering context
     is the most specific one. *)
  List.find_opt (fun s -> Dn.ancestor_of s dn) t.contexts

let note_referral t entry ~add =
  if Entry.is_referral entry then
    t.referral_dns <- (if add then Dn.Set.add else Dn.Set.remove) (Entry.dn entry) t.referral_dns

(* The writes, each at a slot id its caller resolved.  [replace] swaps
   the live entry [old] at [id] for one under the same DN, which keeps
   its children. *)
let replace t id ~old entry =
  if Entry.is_referral old <> Entry.is_referral entry then begin
    note_referral t old ~add:false;
    note_referral t entry ~add:true
  end;
  Content_store.set t.estore id entry

(* [entry] into the slot [id] of its DN (-1 when the DN was never
   stored), which holds none, under the live slot [parent], if any. *)
let insert t ~id ?parent entry =
  let id = if id >= 0 then id else Content_store.intern t.estore (Entry.dn entry) in
  Content_store.set t.estore id entry;
  Option.iter (fun p -> link t p id) parent;
  note_referral t entry ~add:true

(* The one insert path: a new entry is linked under its live parent. *)
let add_at t id entry =
  let dn = Entry.dn entry in
  let parent_dn = Option.value (Dn.parent dn) ~default:Dn.root in
  match live_id t parent_dn with
  | Some parent ->
      insert t ~id ~parent entry;
      Ok ()
  | None when context_for t dn = None -> no_context dn
  | None -> Error ("parent does not exist: " ^ Dn.to_string parent_dn)

let add t entry =
  let dn = Entry.dn entry in
  let id = slot t dn in
  if is_live t id then Error ("entry already exists: " ^ Dn.to_string dn) else add_at t id entry

(* A live DN is replaced in place; a new one is added. *)
let put t entry =
  let id = slot t (Entry.dn entry) in
  if is_live t id then Ok (replace t id ~old:(entry_at t id) entry) else add_at t id entry

(* The one removal path, at [dn]'s live slot [id]: leaves only, and
   never a context suffix. *)
let remove_at t id dn =
  if (not (is_leaf t id)) || List.exists (Dn.equal dn) t.contexts then
    Error ("entry is not a leaf: " ^ Dn.to_string dn)
  else begin
    let parent = Option.get (Option.bind (Dn.parent dn) (live_id t)) in
    Id_vec.remove (kids t parent) id;
    note_referral t (entry_at t id) ~add:false;
    Content_store.clear t.estore id;
    Ok ()
  end

let remove t dn =
  let id = slot t dn in
  if is_live t id then remove_at t id dn else no_such_object dn

(* --- Naming contexts and reads ----------------------------------------- *)

let add_context t entry =
  let suffix = Entry.dn entry in
  let clashes s = Dn.ancestor_of s suffix || Dn.ancestor_of suffix s in
  if List.exists clashes t.contexts then
    Error
      (Printf.sprintf "context %S overlaps an existing naming context"
         (Dn.to_string suffix))
  else begin
    let by_depth a b = Int.compare (Dn.depth b) (Dn.depth a) in
    t.contexts <- List.sort by_depth (suffix :: t.contexts);
    insert t ~id:(slot t suffix) entry;
    Ok ()
  end

let contexts t = t.contexts
let total_entries t = Content_store.size t.estore
let fold_entries t ~init ~f = Content_store.fold t.estore ~init ~f
let content_store t = t.estore

(* --- Search --------------------------------------------------------- *)

type search_error =
  | No_such_object of Dn.t
  | Base_referral of { dn : Dn.t; urls : string list }

type search_result = { entries : Entry.t list; references : string list list }

(* Name resolution: walk from the context suffix down to [base]; if a
   referral object sits at or above the base, the client must chase it. *)
let resolve_base t suffix base =
  let rec ancestors acc dn =
    if Dn.equal dn suffix then dn :: acc
    else
      match Dn.parent dn with
      | None -> acc
      | Some p -> ancestors (dn :: acc) p
  in
  let path = ancestors [] base in
  let referral =
    List.find_map
      (fun dn ->
        if Dn.Set.mem dn t.referral_dns then
          Option.map (fun e -> (dn, Entry.referral_urls e)) (find t dn)
        else None)
      path
  in
  match referral with
  | Some (dn, urls) -> Error (Base_referral { dn; urls })
  | None -> ( match find t base with None -> Error (No_such_object base) | Some e -> Ok e)

(* Referral object strictly between [base] (exclusive) and [dn]
   (exclusive)?  Used to cut off index candidates living under
   subordinate referrals. *)
let crosses_referral t ~base dn =
  if Dn.Set.is_empty t.referral_dns then false
  else
    let rec go cur =
      match Dn.parent cur with
      | None -> false
      | Some p ->
          if Dn.equal p base then false
          else Dn.Set.mem p t.referral_dns || go p
    in
    go dn

let in_scope_references t (q : Query.t) =
  Dn.Set.fold
    (fun dn acc -> if Query.in_scope q dn then dn :: acc else acc)
    t.referral_dns []

let requested_attrs (q : Query.t) = Query.attr_list q.attrs

(* The one candidate walk behind [search] and [count_matching]: folds
   [f] over the entries [q] selects, unprojected and in slot order
   (ascending ids, parents first), and pairs the result with the
   references the walk meets. *)
let fold_matching t (q : Query.t) ~init ~f =
  match context_for t q.base with
  | None -> Error (No_such_object q.base)
  | Some suffix -> (
      let manage = q.Query.manage_dsa_it in
      let resolved =
        if manage then
          (* manageDsaIT: name resolution sees referral objects as
             plain entries. *)
          match find t q.base with
          | None -> Error (No_such_object q.base)
          | Some entry -> Ok entry
        else resolve_base t suffix q.base
      in
      match resolved with
      | Error e -> Error e
      | Ok base_entry ->
          let references =
            if manage then []
            else
              List.filter_map
                (fun dn -> Option.map Entry.referral_urls (find t dn))
                (in_scope_references t q)
          in
          let is_excluded entry =
            (not manage)
            && (Entry.is_referral entry
               || crosses_referral t ~base:q.base (Entry.dn entry))
          in
          let matches entry = (not (is_excluded entry)) && Query.matches q entry in
          let visit acc e = if matches e then f acc e else acc in
          let acc =
            match
              (Content_store.fold_candidates t.estore (q.filter :> Filter.t) ~init ~f:visit, q.scope)
            with
            | Some acc, _ -> acc
            | None, Scope.Base -> if matches base_entry then f init base_entry else init
            | None, Scope.One ->
                let base = Option.get (live_id t q.base) in
                Id_vec.fold (fun id acc -> visit acc (entry_at t id)) (kids t base) init
            | None, Scope.Sub ->
                let rec walk id acc =
                  let acc = if matches (entry_at t id) then id :: acc else acc in
                  Id_vec.fold walk (kids t id) acc
                in
                walk (Option.get (live_id t q.base)) []
                |> List.sort Int.compare
                |> List.fold_left (fun acc id -> f acc (entry_at t id)) init
          in
          Ok (acc, references))

let search t q =
  let attrs = requested_attrs q in
  Result.map
    (fun (selected, references) -> { entries = List.rev selected; references })
    (fold_matching t q ~init:[] ~f:(fun acc e -> Entry.select e attrs :: acc))

let compare_values t dn ~attr ~value =
  match find t dn with
  | None -> Error (Printf.sprintf "no such object: %s" (Dn.to_string dn))
  | Some entry ->
      Ok (Entry.has_value ~syntax:(Schema.syntax_of attr) entry attr value)

(* The count read off the postings, touching no entry, when they hold
   exactly the answer: a filter the store counts (a lone equality or
   initial-only substring on an indexed, non-Integer attribute) over
   the whole of the one naming context (postings span every context),
   with no referral to exclude.  [None] otherwise. *)
let posting_count t (q : Query.t) =
  if
    q.scope = Scope.Sub
    && (not q.manage_dsa_it)
    && Dn.Set.is_empty t.referral_dns
    && match t.contexts with [ suffix ] -> Dn.equal suffix q.base | _ -> false
  then Content_store.posting_count t.estore (q.filter :> Filter.t)
  else None

let count_matching t q =
  match posting_count t q with
  | Some n -> n
  | None -> (
      match fold_matching t q ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok (n, _) -> n
      | Error _ -> 0)

(* --- Updates -------------------------------------------------------- *)

(* The adds that put the values of [dn]'s RDN into its entry. *)
let naming_items dn =
  match Dn.rdn dn with
  | None -> []
  | Some avas ->
      List.map
        (fun (ava : Dn.ava) ->
          { Update.mod_kind = Update.Add_values; mod_attr = ava.attr; mod_values = [ ava.value ] })
        avas

let objectclass = Attr_id.intern "objectclass"

let validate_entry entry =
  if Array.length (Entry.values entry objectclass) = 0 then
    Error (Printf.sprintf "entry %S has no objectClass" (Dn.to_string (Entry.dn entry)))
  else Ok ()

(* An op whose writes succeeded takes the next CSN, joins the log and
   is offered to every subscriber. *)
let commit t op ~before ~after =
  t.csn <- Csn.next t.csn;
  let record = { Update.csn = t.csn; op; before; after } in
  Content_store.attach t.estore record;
  for i = 0 to t.subscriber_count - 1 do
    t.subscribers.(i) record
  done;
  Ok record

(* The value a post-image's modifyTimestamp takes: the committing CSN,
   which the degraded ReSync mode (eq. (3) of the paper) relies on. *)
let stamp t = Csn.to_string (Csn.next t.csn)

let live_entry t id = if id >= 0 then Content_store.get t.estore id else None
let missing t dn = if context_for t dn = None then no_context dn else no_such_object dn

(* Each op looks its target's DN up once, and a new DN's parent once;
   every write goes to the slot ids found, and a post-image is built
   in one [Entry.edit], its stamp included. *)
let apply t op =
  match op with
  | Update.Add entry -> (
      let entry = Result.get_ok (Entry.edit ~stamp:(stamp t) entry (naming_items (Entry.dn entry))) in
      let dn = Entry.dn entry in
      match validate_entry entry with
      | Error _ as e -> e
      | Ok () -> (
          if context_for t dn = None then no_context dn
          else
            match add t entry with
            | Error e -> Error e
            | Ok () -> commit t op ~before:None ~after:(Some entry)))
  | Update.Delete dn -> (
      let id = slot t dn in
      match live_entry t id with
      | None -> missing t dn
      | Some before -> (
          match remove_at t id dn with
          | Error e -> Error e
          | Ok () -> commit t op ~before:(Some before) ~after:None))
  | Update.Modify (dn, items) -> (
      let id = slot t dn in
      match live_entry t id with
      | None -> missing t dn
      | Some before -> (
          match Entry.edit ~stamp:(stamp t) before items with
          | Error _ as e -> e
          | Ok after -> (
              match validate_entry after with
              | Error _ as e -> e
              | Ok () ->
                  replace t id ~old:before after;
                  commit t op ~before:(Some before) ~after:(Some after))))
  | Update.Modify_dn { dn; new_rdn; delete_old_rdn; new_superior } -> (
      let id = slot t dn in
      match live_entry t id with
      | None -> missing t dn
      | Some _ when not (is_leaf t id) ->
          Error (Printf.sprintf "modifyDN on non-leaf entry: %s" (Dn.to_string dn))
      | Some before -> (
          let parent_dn =
            match new_superior with
            | Some sup -> sup
            | None -> Option.value ~default:Dn.root (Dn.parent dn)
          in
          let new_dn = Dn.child parent_dn new_rdn in
          match context_for t new_dn with
          | None ->
              Error (Printf.sprintf "no naming context for new DN %S" (Dn.to_string new_dn))
          | Some target when not (Dn.ancestor_of target dn) ->
              Error "modifyDN across naming contexts is not supported"
          | Some _ -> (
              let new_id = slot t new_dn in
              if is_live t new_id then
                Error (Printf.sprintf "entry already exists: %s" (Dn.to_string new_dn))
              else
                (* Checked before mutating: the remove below must never
                   be left without its insert. *)
                match live_id t parent_dn with
                | Some parent when not (Dn.equal parent_dn dn) -> (
                    let stripped =
                      if delete_old_rdn then
                        match Dn.rdn dn with
                        | None -> before
                        | Some avas ->
                            List.fold_left
                              (fun e (ava : Dn.ava) ->
                                match Entry.delete_values e ava.attr [ ava.value ] with
                                | Ok e' -> e'
                                | Error _ -> e)
                              before avas
                      else before
                    in
                    let after =
                      Result.get_ok
                        (Entry.edit ~dn:new_dn ~stamp:(stamp t) stripped (naming_items new_dn))
                    in
                    match remove_at t id dn with
                    | Error e -> Error e
                    | Ok () ->
                        insert t ~id:new_id ~parent after;
                        commit t op ~before:(Some before) ~after:(Some after))
                | Some _ | None ->
                    Error
                      (Printf.sprintf "new superior does not exist: %s" (Dn.to_string parent_dn)))))

let csn t = t.csn

let log_since t since = Content_store.log_since t.estore since
let log_complete_since t since = Csn.( <= ) (Content_store.log_floor t.estore) since
let trim_log t ~before = Content_store.trim_log t.estore ~before
let log_floor t = Content_store.log_floor t.estore

(* --- Recovery --------------------------------------------------------
   Hooks for the durable store: rebuild a backend from a snapshot image
   plus a replayed WAL suffix.  The images already carry their committed
   stamps, so nothing here validates, re-stamps or notifies
   subscribers. *)

let restore_entry = put
let restore_csn t csn = t.csn <- csn

let restore_log t ~floor records =
  trim_log t ~before:(Csn.next floor);
  List.iter
    (fun (r : Update.record) ->
      let target = match r.after with Some e -> Entry.dn e | None -> Update.op_target r.op in
      Content_store.restore_record t.estore target r)
    records

let replay_record t (r : Update.record) =
  let step =
    match (r.Update.before, r.Update.after) with
    | None, None -> Error "record carries no image"
    | Some b, Some a when Dn.equal (Entry.dn b) (Entry.dn a) ->
        (* In-place modify: the subtree below stays. *)
        put t a
    | before, after ->
        (* Delete and modifyDN only commit on leaves, so the old image
           is removable; then install the new one, if any. *)
        let removed = match before with None -> Ok () | Some b -> remove t (Entry.dn b) in
        Result.bind removed (fun () -> match after with None -> Ok () | Some a -> add t a)
  in
  match step with
  | Error _ as e -> e
  | Ok () ->
      t.csn <- r.Update.csn;
      Content_store.attach t.estore r;
      Ok ()

let subscribe t f =
  if t.subscriber_count = Array.length t.subscribers then begin
    let grown = Array.make (max 4 (2 * t.subscriber_count)) f in
    Array.blit t.subscribers 0 grown 0 t.subscriber_count;
    t.subscribers <- grown
  end;
  t.subscribers.(t.subscriber_count) <- f;
  t.subscriber_count <- t.subscriber_count + 1
