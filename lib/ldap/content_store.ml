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
     reader remembers the revision it last consumed and asks for the
     slot ids changed after it; when the spine has been trimmed past
     that revision the reader is told to rescan instead of being
     served a silent gap.  A backend's store also hangs each committed
     {!Update.record} on its commit's last event, which makes the spine
     the backend's one update log: a trim releases the records it
     drops and raises the log's CSN floor past them.

   It is also the one search engine.  Attribute postings hash each
   canonical value an entry's slot holds (equal Integer spellings
   share a key) to an ascending id vector with its live count, so a
   conjunction prices its conjuncts, takes the cheapest one's
   candidates, a sorted id vector, and keeps those that every other
   equality conjunct's posting holds.  A backend declares its postings at
   creation; any other store builds one the first time a search asks
   for it.  Every write keeps them current: [set] and [clear] at a
   slot id, which [upsert] and [remove] find by DN.  A write walks the
   old and new entries' slot arrays once, skipping the slots they
   share, and moves only the changed values of attributes with
   postings, found by attribute id in [by_attr]. *)

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
  mutable by_attr : index array;
      (* attribute id -> its postings, [no_index] for an attribute without *)
  on_demand : bool;  (* searches may add postings: no [indexed] was declared *)
  mutable stamps : int array;  (* slot id -> last dedup pass that saw it *)
  mutable stamp : int;
}

let no_record = { Update.csn = Csn.zero; op = Update.Delete Dn.root; before = None; after = None }
let no_index = { attr = -1; by_value = Vtbl.create 1; by_prefix = []; stale = 0 }

(* [ix] becomes the index [by_attr] finds under its attribute. *)
let register t ix =
  let n = Array.length t.by_attr in
  if ix.attr >= n then begin
    let grown = Array.make (max (ix.attr + 1) (2 * n)) no_index in
    Array.blit t.by_attr 0 grown 0 n;
    t.by_attr <- grown
  end;
  t.by_attr.(ix.attr) <- ix

(* Past twice this many buffered events the oldest half is dropped. *)
let spine_cap = 16_384

let new_index attr = { attr; by_value = Vtbl.create 64; by_prefix = []; stale = 0 }

let create ?indexed () =
  let t =
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
      by_attr = [||];
      on_demand = indexed = None;
      stamps = [||];
      stamp = 0;
    }
  in
  List.iter (fun attr -> register t (new_index attr)) (Option.value indexed ~default:[]);
  t

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
  match t.slots.(id) with Some s -> s.dn | None -> invalid_arg "Content_store.dn_of"

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

(* A stamp no slot id carries yet, [t.stamps] grown to cover every
   id: one pass that dedups slot ids marks each id it has seen with
   it, so no set is built. *)
let next_stamp t =
  if Array.length t.stamps < t.slot_count then
    t.stamps <- Array.make (max t.slot_count (2 * Array.length t.stamps)) 0;
  t.stamp <- t.stamp + 1;
  t.stamp

let changes_since t since =
  if since >= rev t then Some []
  else if since < t.floor_rev then None
  else begin
    let first = t.spine_start + (since - t.floor_rev) in
    let stop = t.spine_start + t.spine_len in
    let stamp = next_stamp t in
    let stamps = t.stamps in
    let acc = ref [] in
    for i = first to stop - 1 do
      let id = t.spine.(i) in
      if stamps.(id) <> stamp then begin
        stamps.(id) <- stamp;
        acc := id :: !acc
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

(* Slot [id]'s keys under [ix] go from [kb] to [ka]: only the values
   that changed move. *)
let move ix id kb ka =
  if ix != no_index && kb != ka then begin
    for k = 0 to Array.length kb - 1 do
      if not (Prog.mem_string ka kb.(k)) then post ix kb.(k) id ~add:false
    done;
    for k = 0 to Array.length ka - 1 do
      if not (Prog.mem_string kb ka.(k)) then post ix ka.(k) id ~add:true
    done
  end

let index_at t attr = if attr < Array.length t.by_attr then t.by_attr.(attr) else no_index

(* Slot [id]'s postings follow its entry from the slot array [before]
   to [after] ([[||]] for no entry), from positions [i] and [j] on.
   Both are sorted by attribute id, so one walk pairs them; a slot the
   two share physically is an attribute the change left alone and
   costs one comparison, and an attribute without postings costs one
   array read. *)
let rec repost t id (before : Prog.slot array) (after : Prog.slot array) i j =
  let nb = Array.length before and na = Array.length after in
  if i < nb && j < na && before.(i) == after.(j) then repost t id before after (i + 1) (j + 1)
  else if i < nb || j < na then begin
    let bi = if i < nb then before.(i).id else max_int in
    let aj = if j < na then after.(j).id else max_int in
    if bi = aj then begin
      move (index_at t bi) id before.(i).canon after.(j).canon;
      repost t id before after (i + 1) (j + 1)
    end
    else if bi < aj then begin
      move (index_at t bi) id before.(i).canon [||];
      repost t id before after (i + 1) j
    end
    else begin
      move (index_at t aj) id [||] after.(j).canon;
      repost t id before after i (j + 1)
    end
  end

(* --- Mutation -------------------------------------------------------- *)

let set t id entry =
  match t.slots.(id) with
  | Some s ->
      (match s.entry with
      | None ->
          t.live <- t.live + 1;
          repost t id [||] (Entry.compiled entry) 0 0
      | Some old -> repost t id (Entry.compiled old) (Entry.compiled entry) 0 0);
      s.entry <- Some entry;
      record_event t id
  | None -> invalid_arg "Content_store.set"

let upsert t entry = set t (intern t (Entry.dn entry)) entry

let restore_record t dn record =
  record_event t (intern t dn);
  attach t record

let clear t id =
  match t.slots.(id) with
  | Some ({ entry = Some old; _ } as s) ->
      repost t id (Entry.compiled old) [||] 0 0;
      s.entry <- None;
      t.live <- t.live - 1;
      record_event t id
  | Some _ | None -> ()

let remove t dn = Option.iter (clear t) (id_of t dn)

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
   holds, the attribute-id array by its length.  The keys are
   strings the entries' slots already hold.
   [Obj.reachable_words] keeps a table of every object it visits,
   which would grow with every posting. *)
let posting_words t =
  let table rows tbl = 5 + 1 + (Vtbl.stats tbl).num_buckets + Vtbl.fold rows tbl 0 in
  let member n v = n + 3 + if Id_vec.card v = 0 then Id_vec.words v else 0 in
  let group len _ vs n = List.fold_left member (n + 4 + 2 + (len / 8)) vs in
  Array.fold_left
    (fun acc ix ->
      if ix == no_index then acc
      else
        List.fold_left
          (fun acc (len, groups) -> acc + 3 + 3 + table (group len) groups)
          (acc + 5 + table (fun _ v n -> n + 4 + Id_vec.words v) ix.by_value)
          ix.by_prefix)
    (1 + Array.length t.by_attr) t.by_attr

let approx_bytes t =
  (Obj.reachable_words (Obj.repr { t with by_attr = [||] }) + posting_words t)
  * (Sys.word_size / 8)

(* --- Search ---------------------------------------------------------- *)

(* A new index over the live slots in one ascending pass, so every
   id appends to its posting. *)
let build t attr =
  let ix = new_index attr in
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
      match index_at t attr with
      | ix when ix != no_index -> Some ix
      | _ when wanted && t.on_demand ->
          let ix = build t attr in
          register t ix;
          Some ix
      | _ -> None)

(* The posting of [a=v] under [a]'s index [ix]: empty when no entry
   holds the key. *)
let posting ix a v =
  match Vtbl.find ix.by_value (Value.canonical (Schema.syntax_of a) v) with
  | ids -> ids
  | exception Not_found -> Id_vec.empty

(* The largest count that still beats [best]. *)
let bound ~limit = function Some (n, _) -> n - 1 | None -> limit

let rec in_all id = function [] -> true | v :: vs -> Id_vec.mem v id && in_all id vs

(* The ids of [ids] that every posting of [within] holds, ascending. *)
let narrow ids within =
  Id_vec.fold (fun id acc -> if in_all id within then Id_vec.add acc id else acc) ids Id_vec.empty

(* Candidate slots from postings: a count (an upper bound for unions
   and conjunctions) and the set, built only when forced.  [None] when
   no posting applies (the caller walks or scans) or the count would
   pass [limit]; counting stops there.  An equality, or a substring
   with only an initial segment, asks for its attribute's postings to
   be built. *)
let rec index_candidates t ~limit filter =
  let syntax = Schema.syntax_of in
  match filter with
  | Filter.Pred (Filter.Equality (a, v)) -> (
      match index_of t a ~build:true with
      | Some ix ->
          let ids = posting ix a v in
          if Id_vec.card ids <= limit then Some (Id_vec.card ids, Lazy.from_val ids) else None
      | None -> None)
  | Filter.Pred (Filter.Substrings (a, { initial = Some init; any; final }))
    when syntax a <> Value.Integer ->
      (* Substrings compare normalized forms, which for the other
         syntaxes are the canonical keys; Integer ones scan. *)
      Option.bind (index_of t a ~build:(any = [] && final = None)) (fun ix ->
          let vecs = prefixed ix (Value.normalize (syntax a) init) in
          let rec count n = function v :: vs when n <= limit -> count (n + Id_vec.card v) vs | _ -> n in
          let n = count 0 vecs in
          if n > limit then None else Some (n, lazy (Id_vec.union vecs)))
  | Filter.And gs -> (
      match conjunction t ~limit gs with
      | Some (n, ids, []) -> Some (n, ids)
      | Some (n, ids, within) -> Some (n, lazy (narrow (Lazy.force ids) within))
      | None -> None)
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

(* A conjunction's candidates: the cheapest conjunct's count and set,
   and the postings of its other equality conjuncts, each of which a
   candidate must also be in (a posting holds every entry its equality
   matches).  The equalities are looked up once each and priced first,
   so every later conjunct stops counting once it cannot beat the best
   so far; only the winner's set is ever built.  An equality whose
   attribute has no postings does not narrow. *)
and conjunction t ~limit gs = equalities t ~limit gs [] None gs

(* Prices each equality conjunct of [gs] in turn, gathering their
   postings, then the others. *)
and equalities t ~limit gs postings cheapest = function
  | Filter.Pred (Filter.Equality (a, v)) :: eqs -> (
      match index_of t a ~build:true with
      | Some ix ->
          let p = posting ix a v in
          let n = Id_vec.card p in
          let cheapest =
            if n <= bound ~limit cheapest then Some (n, Lazy.from_val p) else cheapest
          in
          equalities t ~limit gs (p :: postings) cheapest eqs
      | None -> equalities t ~limit gs postings cheapest eqs)
  | _ :: eqs -> equalities t ~limit gs postings cheapest eqs
  | [] -> (
      match others t ~limit cheapest gs with
      | Some (n, ids) as best ->
          (* An equality that won does not narrow its own set. *)
          let within =
            if best == cheapest then
              let won = Lazy.force ids in
              List.filter (fun p -> p != won) postings
            else postings
          in
          Some (n, ids, within)
      | None -> None)

(* Prices the other conjuncts against the best so far. *)
and others t ~limit best = function
  | Filter.Pred (Filter.Equality _) :: gs -> others t ~limit best gs
  | g :: gs -> (
      match index_candidates t ~limit:(bound ~limit best) g with
      | Some _ as c -> others t ~limit c gs
      | None -> others t ~limit best gs)
  | [] -> best

let fold_candidates t filter ~init ~f =
  let visit id acc = match get t id with Some e -> f acc e | None -> acc in
  match filter with
  | Filter.And gs ->
      (* Narrowed while folding: the set is never built. *)
      Option.map
        (fun (_, ids, within) ->
          let keep =
            match within with
            | [] -> visit
            | _ -> fun id acc -> if in_all id within then visit id acc else acc
          in
          Id_vec.fold keep (Lazy.force ids) init)
        (conjunction t ~limit:max_int gs)
  | _ ->
      Option.map
        (fun (_, ids) -> Id_vec.fold visit (Lazy.force ids) init)
        (index_candidates t ~limit:max_int filter)

let search t (q : Query.t) ~init ~f =
  let visit acc e = if Query.matches q e then f acc e else acc in
  match fold_candidates t (q.Query.filter :> Filter.t) ~init ~f:visit with
  | Some acc -> acc
  | None -> fold t ~init ~f:visit

(* Distinct slot ids across the postings whose key starts with
   [prefix].  A multi-valued entry can sit under several such keys;
   a fresh stamp marks the ids this count has seen, so no union is
   built. *)
let count_prefixed t ix prefix =
  let stamp = next_stamp t in
  let stamps = t.stamps in
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
      Option.map (fun ix -> Id_vec.card (posting ix a v)) (table a)
  | Filter.Pred (Filter.Substrings (a, { initial = Some init; any = []; final = None })) ->
      Option.map (fun ix -> count_prefixed t ix (Value.normalize (syntax a) init)) (table a)
  | Filter.Pred _ | Filter.Not _ | Filter.And _ | Filter.Or _ -> None
