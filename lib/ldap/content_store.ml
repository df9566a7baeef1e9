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
     drops and raises the log's CSN floor past them. *)

type slot = { dn : Dn.t; mutable entry : Entry.t option }

type t = {
  ids : (string, int) Hashtbl.t;  (* canonical DN -> slot id *)
  mutable slots : slot option array;
  mutable slot_count : int;  (* slots allocated, live or tombstoned *)
  mutable live : int;  (* slots holding an entry *)
  spine_cap : int;
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
}

let no_record = { Update.csn = Csn.zero; op = Update.Delete Dn.root; before = None; after = None }

let default_spine_cap = 16_384

let create ?(spine_cap = default_spine_cap) () =
  {
    ids = Hashtbl.create 256;
    slots = Array.make 64 None;
    slot_count = 0;
    live = 0;
    spine_cap = max 1 spine_cap;
    spine = Array.make 64 0;
    spine_rec = Array.make 64 no_record;
    spine_start = 0;
    spine_len = 0;
    floor_rev = 0;
    log_floor = Csn.zero;
    log_length = 0;
  }

let size t = t.live
let interned t = t.slot_count
let rev t = t.floor_rev + t.spine_len
let floor t = t.floor_rev
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
  if t.spine_len >= 2 * t.spine_cap then trim_spine t ~keep:t.spine_cap;
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
let log_length t = t.log_length

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

let spine_csn_range t =
  match log_since t t.log_floor with
  | [] -> None
  | oldest :: rest ->
      Some (oldest.Update.csn, (List.fold_left (fun _ r -> r) oldest rest).Update.csn)

(* --- Mutation -------------------------------------------------------- *)

let upsert t entry =
  let id = intern t (Entry.dn entry) in
  (match t.slots.(id) with
  | Some s ->
      if s.entry = None then t.live <- t.live + 1;
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
      | Some s when s.entry <> None ->
          s.entry <- None;
          t.live <- t.live - 1;
          record_event t id
      | Some _ | None -> ())

(* --- Access ---------------------------------------------------------- *)

let get t id = match t.slots.(id) with Some s -> s.entry | None -> None
let find t dn = match id_of t dn with None -> None | Some id -> get t id

let mem t dn = find t dn <> None

let iter t f =
  for i = 0 to t.slot_count - 1 do
    match t.slots.(i) with
    | Some { entry = Some e; _ } -> f e
    | Some _ | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
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

let approx_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)
