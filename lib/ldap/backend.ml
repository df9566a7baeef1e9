(* Every entry of every naming context lives in one [Content_store],
   which also holds the attribute postings searches read candidates
   from: the backend declares its [indexed] attributes (and
   [objectclass]) to it.  The store's slot ids key the one table that
   stands in for a tree here: child links, for one-level and subtree
   walks and the leaf and parent checks.  A slot id is assigned when
   its DN is first stored, which needs a live parent, and is never
   reused, so ascending slot order visits parents before their
   children. *)

module Ids = Set.Make (Int)
module Attr_id = Ldap_compile.Attr_id

type t = {
  mutable contexts : Dn.t list;  (* suffixes, deepest first *)
  estore : Content_store.t;  (* every entry and its postings; its spine is the update log *)
  mutable kids : Ids.t array;  (* slot id -> child slot ids *)
  mutable referral_dns : Dn.Set.t;  (* referral objects, for references *)
  mutable csn : Csn.t;
  mutable subscribers : (Update.record -> unit) array;  (* registration order *)
  mutable subscriber_count : int;
}

let create ?(indexed = []) () =
  {
    contexts = [];
    estore = Content_store.create ~indexed:(List.map Attr_id.intern ("objectclass" :: indexed)) ();
    kids = Array.make 64 Ids.empty;
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

let live_id t dn =
  match Content_store.id_of t.estore dn with
  | Some id when Option.is_some (Content_store.get t.estore id) -> Some id
  | Some _ | None -> None

let kids t id = if id < Array.length t.kids then t.kids.(id) else Ids.empty

let set_kids t id ids =
  let n = Array.length t.kids in
  if id >= n then begin
    let grown = Array.make (max (2 * n) (id + 1)) Ids.empty in
    Array.blit t.kids 0 grown 0 n;
    t.kids <- grown
  end;
  t.kids.(id) <- ids

let is_leaf t id = Ids.is_empty (kids t id)

let context_for t dn =
  (* contexts are sorted deepest first, so the first covering context
     is the most specific one. *)
  List.find_opt (fun s -> Dn.ancestor_of s dn) t.contexts

let note_referral t entry ~add =
  if Entry.is_referral entry then
    t.referral_dns <- (if add then Dn.Set.add else Dn.Set.remove) (Entry.dn entry) t.referral_dns

let store t ?parent entry =
  Content_store.upsert t.estore entry;
  let id = Option.get (Content_store.id_of t.estore (Entry.dn entry)) in
  Option.iter (fun p -> set_kids t p (Ids.add id (kids t p))) parent;
  note_referral t entry ~add:true

(* The one insert path: a live DN is replaced in place and keeps its
   children; a new one is linked under its live parent. *)
let put t entry =
  let dn = Entry.dn entry in
  match live_id t dn with
  | Some id ->
      let old = entry_at t id in
      if Entry.is_referral old <> Entry.is_referral entry then begin
        note_referral t old ~add:false;
        note_referral t entry ~add:true
      end;
      Content_store.upsert t.estore entry;
      Ok ()
  | None -> (
      let parent_dn = Option.value (Dn.parent dn) ~default:Dn.root in
      match live_id t parent_dn with
      | Some parent ->
          store t ~parent entry;
          Ok ()
      | None when context_for t dn = None -> no_context dn
      | None -> Error ("parent does not exist: " ^ Dn.to_string parent_dn))

let add t entry =
  let dn = Entry.dn entry in
  if live_id t dn <> None then Error ("entry already exists: " ^ Dn.to_string dn)
  else put t entry

(* The one removal path: leaves only, and never a context suffix. *)
let remove t dn =
  match live_id t dn with
  | None -> no_such_object dn
  | Some id when (not (is_leaf t id)) || List.exists (Dn.equal dn) t.contexts ->
      Error ("entry is not a leaf: " ^ Dn.to_string dn)
  | Some id ->
      let parent = Option.get (Option.bind (Dn.parent dn) (live_id t)) in
      set_kids t parent (Ids.remove id (kids t parent));
      note_referral t (entry_at t id) ~add:false;
      Content_store.remove t.estore dn;
      Ok ()

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
    store t entry;
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
          (* Compile the filter once per search; every candidate then
             evaluates bytecode against its slots instead of
             re-walking the AST with per-predicate schema lookups and
             value normalization. *)
          let filter_matches = Filter.matcher q.filter in
          let matches entry = (not (is_excluded entry)) && filter_matches entry in
          let visit acc e = if Query.in_scope q (Entry.dn e) && matches e then f acc e else acc in
          let acc =
            match
              (Content_store.fold_candidates t.estore q.filter ~init ~f:visit, q.scope)
            with
            | Some acc, _ -> acc
            | None, Scope.Base -> if matches base_entry then f init base_entry else init
            | None, Scope.One ->
                let base = Option.get (live_id t q.base) in
                Ids.fold (fun id acc -> visit acc (entry_at t id)) (kids t base) init
            | None, Scope.Sub ->
                let rec walk id acc =
                  let acc = if matches (entry_at t id) then id :: acc else acc in
                  Ids.fold walk (kids t id) acc
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
  then Content_store.posting_count t.estore q.filter
  else None

let count_matching t q =
  match posting_count t q with
  | Some n -> n
  | None -> (
      match fold_matching t q ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok (n, _) -> n
      | Error _ -> 0)

(* --- Updates -------------------------------------------------------- *)

let naming_values_present entry =
  match Dn.rdn (Entry.dn entry) with
  | None -> entry
  | Some avas ->
      List.fold_left
        (fun e (ava : Dn.ava) -> Entry.add_values e ava.attr [ ava.value ])
        entry avas

let objectclass = Attr_id.intern "objectclass"

let validate_entry entry =
  if Array.length (Entry.values entry objectclass) = 0 then
    Error (Printf.sprintf "entry %S has no objectClass" (Dn.to_string (Entry.dn entry)))
  else Ok ()

let apply_mod entry (item : Update.mod_item) =
  match item.mod_kind with
  | Update.Add_values -> Ok (Entry.add_values entry item.mod_attr item.mod_values)
  | Update.Replace_values -> Ok (Entry.replace_values entry item.mod_attr item.mod_values)
  | Update.Delete_values -> Entry.delete_values entry item.mod_attr item.mod_values

let commit t op ~before ~after ~(mutate : unit -> (unit, string) result) =
  match mutate () with
  | Error _ as e -> e
  | Ok () ->
      t.csn <- Csn.next t.csn;
      let record = { Update.csn = t.csn; op; before; after } in
      Content_store.attach t.estore record;
      for i = 0 to t.subscriber_count - 1 do
        t.subscribers.(i) record
      done;
      Ok record

let apply t op =
  (* Post-images carry the committing CSN as modifyTimestamp, which the
     degraded ReSync mode (eq. (3) of the paper) relies on. *)
  let stamp e =
    Entry.replace_values e "modifytimestamp" [ Csn.to_string (Csn.next t.csn) ]
  in
  let existing dn k =
    match find t dn with
    | Some before -> k before
    | None -> if context_for t dn = None then no_context dn else no_such_object dn
  in
  match op with
  | Update.Add entry -> (
      let entry = stamp (naming_values_present entry) in
      let dn = Entry.dn entry in
      match validate_entry entry with
      | Error _ as e -> e
      | Ok () ->
          if context_for t dn = None then no_context dn
          else commit t op ~before:None ~after:(Some entry) ~mutate:(fun () -> add t entry))
  | Update.Delete dn ->
      existing dn (fun before ->
          commit t op ~before:(Some before) ~after:None ~mutate:(fun () -> remove t dn))
  | Update.Modify (dn, items) ->
      existing dn (fun before ->
          let applied =
            List.fold_left
              (fun acc item ->
                match acc with Error _ as e -> e | Ok e -> apply_mod e item)
              (Ok before) items
          in
          match Result.map stamp applied with
          | Error _ as e -> e
          | Ok after -> (
              match validate_entry after with
              | Error _ as e -> e
              | Ok () ->
                  commit t op ~before:(Some before) ~after:(Some after) ~mutate:(fun () ->
                      put t after)))
  | Update.Modify_dn { dn; new_rdn; delete_old_rdn; new_superior } ->
      existing dn (fun before ->
          if not (is_leaf t (Option.get (live_id t dn))) then
            Error (Printf.sprintf "modifyDN on non-leaf entry: %s" (Dn.to_string dn))
          else
            let parent_dn =
              match new_superior with
              | Some sup -> sup
              | None -> Option.value ~default:Dn.root (Dn.parent dn)
            in
            let new_dn = Dn.child parent_dn new_rdn in
            match context_for t new_dn with
            | None ->
                Error
                  (Printf.sprintf "no naming context for new DN %S" (Dn.to_string new_dn))
            | Some target when not (Dn.ancestor_of target dn) ->
                Error "modifyDN across naming contexts is not supported"
            | Some _ ->
                if find t new_dn <> None then
                  Error (Printf.sprintf "entry already exists: %s" (Dn.to_string new_dn))
                else if find t parent_dn = None || Dn.equal parent_dn dn then
                  (* Checked before mutating: the remove below must
                     never be left without its add. *)
                  Error
                    (Printf.sprintf "new superior does not exist: %s"
                       (Dn.to_string parent_dn))
                else
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
                  let after = stamp (naming_values_present (Entry.with_dn stripped new_dn)) in
                  commit t op ~before:(Some before) ~after:(Some after) ~mutate:(fun () ->
                      Result.bind (remove t dn) (fun () -> add t after)))

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
