(* DN-keyed content store with interned ids and a change spine.

   The store is the shared content shape for every layer that holds a
   set of entries: backend content, consumer replica content, and the
   snapshot-diff cursors the topology nodes serve from.  Three parts:

   - [ids]: canonical-DN -> slot id.  A DN is interned once; deleting
     the entry tombstones the slot (entry = None) but keeps the id, so
     spine events can name entries by a dense int forever.
   - [slots]: the dense array of slots, giving O(1) access by id and a
     cheap ordered iterator (insertion order, holes skipped).
   - [spine]: a ring of change events (slot ids) in commit order.  A
     reader remembers the revision it last consumed and asks for
     everything after it; when the spine has been trimmed past that
     revision the reader is told to rescan instead of being served a
     silent gap.  A backend's store also hangs each committed
     {!Update.record} on its commit's last event, which makes the spine
     the backend's one update log: a trim releases the records it
     drops and raises the log's CSN floor past them.

   It is also the one search engine.  Attribute postings hash each
   canonical value an entry's slot holds (equal Integer spellings
   share a key) to an ascending id vector with its live count, so a
   conjunction prices its conjuncts and builds only the cheapest one's
   candidates, a sorted id vector.  A backend declares its postings at
   creation; any other store builds one the first time a search asks
   for it.  [upsert] and [remove] keep them current. *)

module Vtbl = Hashtbl.Make (String)
module Attr_id = Ldap_compile.Attr_id
module Prog = Ldap_compile.Prog

type slot = { dn : Dn.t; mutable entry : Entry.t option }

(* One indexed attribute: its id, its postings by canonical value
   and, for each prefix length a walk has used, its postings grouped
   by their keys' first that many bytes. *)
type index = {
  attr : Attr_id.t;
  by_value : Id_vec.t Vtbl.t;
  mutable by_prefix : (int * Id_vec.t list Vtbl.t) list;
  mutable stale : int;  (* emptied postings still in the groups *)
}

type t = {
  ids : (string, int) Hashtbl.t;  (* canonical DN -> slot id *)
  mutable slots : slot option array;
  mutable slot_count : int;  (* slots allocated, live or tombstoned *)
  mutable live : int;  (* slots holding an entry *)
  mutable spine : int array;  (* slot ids, oldest first from [spine_start] *)
  mutable spine_rec : Update.record array;
      (* parallel to [spine]: the record a commit's last event carries,
         [no_record] on every other event and on every slot outside
         the live window, so dropped records are never kept alive *)
  mutable spine_start : int;
  mutable spine_len : int;
  mutable floor_rev : int;  (* events up to this revision were dropped *)
  mutable log_floor : Csn.t;  (* records at or below it were dropped *)
  mutable log_length : int;  (* events carrying a record *)
  mutable indexes : index list;  (* one per attribute with postings *)
  on_demand : bool;  (* searches may add postings: no [indexed] was declared *)
  mutable stamps : int array;  (* slot id -> last posting count that saw it *)
  mutable stamp : int;
}

let no_record = { Update.csn = Csn.zero; op = Update.Delete Dn.root; before = None; after = None }

(* Past twice this many buffered events the oldest half is dropped. *)
let spine_cap = 16_384

let create ?indexed () =
  let index attr = { attr; by_value = Vtbl.create 64; by_prefix = []; stale = 0 } in
  {
    ids = Hashtbl.create 256;
    slots = Array.make 64 None;
    slot_count = 0;
    live = 0;
    spine = Array.make 64 0;
    spine_rec = Array.make 64 no_record;
    spine_start = 0;
    spine_len = 0;
    floor_rev = 0;
    log_floor = Csn.zero;
    log_length = 0;
    indexes = List.map index (List.sort_uniq Int.compare (Option.value indexed ~default:[]));
    on_demand = indexed = None;
    stamps = [||];
    stamp = 0;
  }

let size t = t.live
let interned t = t.slot_count
let rev t = t.floor_rev + t.spine_len
let spine_length t = t.spine_len

(* --- Slots ----------------------------------------------------------- *)

let grow_slots t =
  if t.slot_count = Array.length t.slots then begin
    let grown = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 grown 0 t.slot_count;
    t.slots <- grown
  end

let intern t dn =
  let key = Dn.canonical dn in
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
      grow_slots t;
      let id = t.slot_count in
      t.slots.(id) <- Some { dn; entry = None };
      t.slot_count <- t.slot_count + 1;
      Hashtbl.replace t.ids key id;
      id

let id_of t dn = Hashtbl.find_opt t.ids (Dn.canonical dn)

let dn_of t id =
  match t.slots.(id) with Some s -> s.dn | None -> invalid_arg "dn_of"

(* --- Spine ----------------------------------------------------------- *)

(* Dropping consumed prefix and growing share one compaction: events in
   [spine_start ..] move to the front of a (possibly larger) array. *)
let spine_make_room t =
  let cap = Array.length t.spine in
  if t.spine_start + t.spine_len = cap then
    if t.spine_len * 2 <= cap then begin
      Array.blit t.spine t.spine_start t.spine 0 t.spine_len;
      Array.blit t.spine_rec t.spine_start t.spine_rec 0 t.spine_len;
      Array.fill t.spine_rec t.spine_len (cap - t.spine_len) no_record;
      t.spine_start <- 0
    end
    else begin
      let spine = Array.make (2 * cap) 0 in
      let recs = Array.make (2 * cap) no_record in
      Array.blit t.spine t.spine_start spine 0 t.spine_len;
      Array.blit t.spine_rec t.spine_start recs 0 t.spine_len;
      t.spine <- spine;
      t.spine_rec <- recs;
      t.spine_start <- 0
    end

let raise_log_floor t csn = if Csn.( < ) t.log_floor csn then t.log_floor <- csn

(* Dropped records are released, and the log floor rises to the
   newest of them. *)
let trim_spine t ~keep =
  let keep = max 0 keep in
  if t.spine_len > keep then begin
    let drop = t.spine_len - keep in
    if t.log_length > 0 then
      for i = t.spine_start to t.spine_start + drop - 1 do
        let r = t.spine_rec.(i) in
        if r != no_record then begin
          raise_log_floor t r.Update.csn;
          t.spine_rec.(i) <- no_record;
          t.log_length <- t.log_length - 1
        end
      done;
    t.spine_start <- t.spine_start + drop;
    t.spine_len <- keep;
    t.floor_rev <- t.floor_rev + drop
  end

let record_event t id =
  (* Bounded by construction: past twice the cap the oldest half is
     dropped, so laggards beyond it rescan rather than the spine
     growing with update volume. *)
  if t.spine_len >= 2 * spine_cap then trim_spine t ~keep:spine_cap;
  spine_make_room t;
  t.spine.(t.spine_start + t.spine_len) <- id;
  t.spine_len <- t.spine_len + 1

let changes_since t since =
  if since >= rev t then Some []
  else if since < t.floor_rev then None
  else begin
    let first = t.spine_start + (since - t.floor_rev) in
    let stop = t.spine_start + t.spine_len in
    let seen = Hashtbl.create 32 in
    let acc = ref [] in
    for i = first to stop - 1 do
      let id = t.spine.(i) in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        acc := dn_of t id :: !acc
      end
    done;
    Some (List.rev !acc)
  end

(* --- Update log ------------------------------------------------------ *)

let attach t record =
  let i = t.spine_start + t.spine_len - 1 in
  if t.spine_len = 0 || t.spine_rec.(i) != no_record then
    invalid_arg "Content_store.attach: no unclaimed event";
  t.spine_rec.(i) <- record;
  t.log_length <- t.log_length + 1

let log_since t since =
  let rec go i acc =
    if i < t.spine_start then acc
    else
      let r = t.spine_rec.(i) in
      if r == no_record then go (i - 1) acc
      else if Csn.( < ) since r.Update.csn then go (i - 1) (r :: acc)
      else acc
  in
  if t.log_length = 0 then [] else go (t.spine_start + t.spine_len - 1) []

let log_floor t = t.log_floor

let trim_log t ~before =
  (* Drop through the last event whose record is older than [before];
     events after it belong to later commits. *)
  let stop = t.spine_start + t.spine_len in
  let rec last_older i found =
    if i >= stop then found
    else
      let r = t.spine_rec.(i) in
      if r == no_record then last_older (i + 1) found
      else if Csn.( < ) r.Update.csn before then last_older (i + 1) (i + 1 - t.spine_start)
      else found
  in
  trim_spine t ~keep:(t.spine_len - last_older t.spine_start 0);
  raise_log_floor t (Csn.of_int (Csn.to_int before - 1))

(* --- Postings -------------------------------------------------------- *)

(* Posting [v] of a new [key] joins its group in a prefix table. *)
let regroup key v (len, groups) =
  if String.length key >= len then begin
    let prefix = String.sub key 0 len in
    Vtbl.replace groups prefix (v :: Option.value (Vtbl.find_opt groups prefix) ~default:[])
  end

(* An emptied posting stays in its groups, where it counts nothing,
   until they hold as many of them as the table holds keys. *)
let prune ix =
  ix.stale <- ix.stale + 1;
  if ix.stale > Vtbl.length ix.by_value then begin
    let live _ vs = match List.filter (fun v -> Id_vec.card v > 0) vs with [] -> None | vs -> Some vs in
    List.iter (fun (_, groups) -> Vtbl.filter_map_inplace live groups) ix.by_prefix;
    ix.stale <- 0
  end

(* Slot [id] joins or leaves one posting.  A key enters the table with
   its first id, and its prefix groups with it, and leaves with its
   last. *)
let post ix key id ~add =
  match Vtbl.find ix.by_value key with
  | v when add -> ignore (Id_vec.add v id)
  | v ->
      Id_vec.remove v id;
      if Id_vec.card v = 0 then begin
        Vtbl.remove ix.by_value key;
        if ix.by_prefix <> [] then prune ix
      end
  | exception Not_found ->
      if add then begin
        let v = Id_vec.add Id_vec.empty id in
        Vtbl.add ix.by_value key v;
        if ix.by_prefix <> [] then List.iter (regroup key v) ix.by_prefix
      end

(* The posting keys of [entry] under [ix]: its slot's canonical values,
   [[||]] without the attribute. *)
let keys ix entry =
  let slots = Entry.compiled entry in
  match Prog.slot_index slots ix.attr with -1 -> [||] | i -> slots.(i).Prog.canon

let note t id entry ~add =
  List.iter (fun ix -> Array.iter (fun key -> post ix key id ~add) (keys ix entry)) t.indexes

(* The same when [entry] replaces [old] at slot [id]: only the values
   that changed move.  An attribute a modify left alone keeps its
   slot, so its keys are physically the old ones and it costs one
   comparison. *)
let renote t id ~old entry =
  List.iter
    (fun ix ->
      let kb = keys ix old and ka = keys ix entry in
      if kb != ka then begin
        Array.iter (fun k -> if not (Prog.mem_string ka k) then post ix k id ~add:false) kb;
        Array.iter (fun k -> if not (Prog.mem_string kb k) then post ix k id ~add:true) ka
      end)
    t.indexes

(* --- Mutation -------------------------------------------------------- *)

let upsert t entry =
  let id = intern t (Entry.dn entry) in
  (match t.slots.(id) with
  | Some s ->
      (match s.entry with
      | None ->
          t.live <- t.live + 1;
          note t id entry ~add:true
      | Some old -> renote t id ~old entry);
      s.entry <- Some entry
  | None -> assert false);
  record_event t id

let restore_record t dn record =
  record_event t (intern t dn);
  attach t record

let remove t dn =
  match id_of t dn with
  | None -> ()
  | Some id -> (
      match t.slots.(id) with
      | Some ({ entry = Some old; _ } as s) ->
          note t id old ~add:false;
          s.entry <- None;
          t.live <- t.live - 1;
          record_event t id
      | Some _ | None -> ())

(* --- Access ---------------------------------------------------------- *)

let get t id = match t.slots.(id) with Some s -> s.entry | None -> None
let find t dn = match id_of t dn with None -> None | Some id -> get t id


let iteri t f =
  for i = 0 to t.slot_count - 1 do
    match t.slots.(i) with
    | Some { entry = Some e; _ } -> f i e
    | Some _ | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iteri t (fun _ e -> acc := f !acc e);
  !acc

let to_seq t =
  let rec go i () =
    if i >= t.slot_count then Seq.Nil
    else
      match t.slots.(i) with
      | Some { entry = Some e; _ } -> Seq.Cons (e, go (i + 1))
      | Some _ | None -> go (i + 1) ()
  in
  go 0

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

(* Postings are counted, not walked: tables by their buckets and rows,
   a posting by its vector's capacity, dead ids included, a prefix
   group by its string, its list and the emptied postings it still
   holds.  The keys are strings the entries' slots already hold.
   [Obj.reachable_words] keeps a table of every object it visits,
   which would grow with every posting. *)
let posting_words t =
  let table rows tbl = 5 + 1 + (Vtbl.stats tbl).num_buckets + Vtbl.fold rows tbl 0 in
  let member n v = n + 3 + if Id_vec.card v = 0 then Id_vec.words v else 0 in
  let group len _ vs n = List.fold_left member (n + 4 + 2 + (len / 8)) vs in
  List.fold_left
    (fun acc ix ->
      List.fold_left
        (fun acc (len, groups) -> acc + 3 + 3 + table (group len) groups)
        (acc + 4 + 3 + table (fun _ v n -> n + 4 + Id_vec.words v) ix.by_value)
        ix.by_prefix)
    0 t.indexes

let approx_bytes t =
  (Obj.reachable_words (Obj.repr { t with indexes = [] }) + posting_words t) * (Sys.word_size / 8)

(* --- Search ---------------------------------------------------------- *)

(* A new index over the live slots in one ascending pass, so every
   id appends to its posting. *)
let build t attr =
  let ix = { attr; by_value = Vtbl.create 64; by_prefix = []; stale = 0 } in
  iteri t (fun id e -> Array.iter (fun key -> post ix key id ~add:true) (keys ix e));
  ix

(* The postings whose key starts with [prefix], in no order.  The first
   walk with a prefix of this length groups the keys by their first
   that many bytes; [post] keeps the groups after it. *)
let prefixed ix prefix =
  let len = String.length prefix in
  let groups =
    match List.assoc_opt len ix.by_prefix with
    | Some groups -> groups
    | None ->
        let groups = Vtbl.create 64 in
        Vtbl.iter (fun key v -> regroup key v (len, groups)) ix.by_value;
        ix.by_prefix <- (len, groups) :: ix.by_prefix;
        groups
  in
  Option.value (Vtbl.find_opt groups prefix) ~default:[]

(* The postings of attribute [a], when the store keeps them.  A store
   that declared none builds them here when [build] asks, after which
   [upsert] and [remove] keep them.  An attribute name never interned
   is held by no entry; the caller scans. *)
let index_of t a ~build:wanted =
  match Attr_id.interned a with
  | None -> None
  | Some attr -> (
      match List.find_opt (fun ix -> ix.attr = attr) t.indexes with
      | Some _ as found -> found
      | None when wanted && t.on_demand ->
          let ix = build t attr in
          t.indexes <- ix :: t.indexes;
          Some ix
      | None -> None)

(* Candidate slots from postings: a count (an upper bound for unions)
   and the set, built only when forced.  [None] when no posting applies
   (the caller walks or scans) or the count would pass [limit];
   counting stops there.  An equality, or a substring with only an
   initial segment, asks for its attribute's postings to be built. *)
let rec index_candidates t ~limit filter =
  let syntax = Schema.syntax_of in
  match filter with
  | Filter.Pred (Filter.Equality (a, v)) ->
      Option.bind (index_of t a ~build:true) (fun ix ->
          let ids =
            Option.value (Vtbl.find_opt ix.by_value (Value.canonical (syntax a) v)) ~default:Id_vec.empty
          in
          if Id_vec.card ids <= limit then Some (Id_vec.card ids, Lazy.from_val ids) else None)
  | Filter.Pred (Filter.Substrings (a, { initial = Some init; any; final }))
    when syntax a <> Value.Integer ->
      (* Substrings compare normalized forms, which for the other
         syntaxes are the canonical keys; Integer ones scan. *)
      Option.bind (index_of t a ~build:(any = [] && final = None)) (fun ix ->
          let vecs = prefixed ix (Value.normalize (syntax a) init) in
          let rec count n = function v :: vs when n <= limit -> count (n + Id_vec.card v) vs | _ -> n in
          let n = count 0 vecs in
          if n > limit then None else Some (n, lazy (Id_vec.union vecs)))
  | Filter.And gs ->
      (* Any conjunct's candidates over-approximate the result.  Price
         the equalities first, as one lookup each, so every later
         conjunct stops counting once it cannot beat the best so far;
         only the winner's set is ever built. *)
      let eqs, others =
        List.partition (function Filter.Pred (Filter.Equality _) -> true | _ -> false) gs
      in
      List.fold_left
        (fun best g ->
          let limit = match best with Some (n, _) -> n - 1 | None -> limit in
          match index_candidates t ~limit g with Some _ as c -> c | None -> best)
        None (eqs @ others)
  | Filter.Or gs ->
      let rec sum n sets = function
        | [] -> Some (n, lazy (Id_vec.union (List.map Lazy.force sets)))
        | g :: rest -> (
            match index_candidates t ~limit:(limit - n) g with
            | Some (n', s) -> sum (n + n') (s :: sets) rest
            | None -> None)
      in
      sum 0 [] gs
  | Filter.Pred _ | Filter.Not _ -> None

let fold_candidates t filter ~init ~f =
  Option.map
    (fun (_, ids) ->
      Id_vec.fold
        (fun id acc -> match get t id with Some e -> f acc e | None -> acc)
        (Lazy.force ids) init)
    (index_candidates t ~limit:max_int filter)

let search t (q : Query.t) ~init ~f =
  let matches = Filter.matcher (q.Query.filter :> Filter.t) in
  let visit acc e = if Query.in_scope q (Entry.dn e) && matches e then f acc e else acc in
  match fold_candidates t (q.Query.filter :> Filter.t) ~init ~f:visit with
  | Some acc -> acc
  | None -> fold t ~init ~f:visit

(* Distinct slot ids across the postings whose key starts with
   [prefix].  A multi-valued entry can sit under several such keys;
   [t.stamps] marks the ids this count has seen, so no union is
   built. *)
let count_prefixed t ix prefix =
  if Array.length t.stamps < t.slot_count then
    t.stamps <- Array.make (max t.slot_count (2 * Array.length t.stamps)) 0;
  t.stamp <- t.stamp + 1;
  let stamps = t.stamps and stamp = t.stamp in
  let see id n =
    if stamps.(id) = stamp then n
    else begin
      stamps.(id) <- stamp;
      n + 1
    end
  in
  List.fold_left (fun n v -> Id_vec.fold see v n) 0 (prefixed ix prefix)

let posting_count t filter =
  let syntax = Schema.syntax_of in
  let table a = if syntax a <> Value.Integer then index_of t a ~build:false else None in
  match filter with
  | Filter.Pred (Filter.Equality (a, v)) ->
      let find ix = Vtbl.find_opt ix.by_value (Value.canonical (syntax a) v) in
      Option.map (fun ix -> Option.fold ~none:0 ~some:Id_vec.card (find ix)) (table a)
  | Filter.Pred (Filter.Substrings (a, { initial = Some init; any = []; final = None })) ->
      Option.map (fun ix -> count_prefixed t ix (Value.normalize (syntax a) init)) (table a)
  | Filter.Pred _ | Filter.Not _ | Filter.And _ | Filter.Or _ -> None
