(* DN-keyed content store with interned ids and a change spine.

   The store is the shared content shape for every layer that holds a
   set of entries: backend content, consumer replica content, and the
   snapshot-diff cursors the topology nodes serve from.  Three parts:

   - [ids]: canonical-DN -> slot id.  A DN is interned once; deleting
     the entry tombstones the slot (entry = None) but keeps the id, so
     spine events can name entries by a dense int forever.
   - [slots]: the dense array of slots, giving O(1) access by id and a
     cheap ordered iterator (insertion order, holes skipped).
   - [spine]: a ring of change events (slot ids, with the originating
     CSN stamp when known) in commit order.  A reader remembers the
     revision it last consumed and asks for everything after it; when
     the spine has been trimmed past that revision the reader is told
     to rescan instead of being served a silent gap. *)

type slot = { dn : Dn.t; mutable entry : Entry.t option }

type t = {
  ids : (string, int) Hashtbl.t;  (* canonical DN -> slot id *)
  mutable slots : slot option array;
  mutable slot_count : int;  (* slots allocated, live or tombstoned *)
  mutable live : int;  (* slots holding an entry *)
  spine_cap : int;
  mutable spine : int array;  (* slot ids, oldest first from [spine_start] *)
  mutable spine_csn : int array;  (* CSN stamps parallel to [spine]; 0 unknown *)
  mutable spine_start : int;
  mutable spine_len : int;
  mutable floor_rev : int;  (* events up to this revision were dropped *)
}

let default_spine_cap = 16_384

let create ?(spine_cap = default_spine_cap) () =
  {
    ids = Hashtbl.create 256;
    slots = Array.make 64 None;
    slot_count = 0;
    live = 0;
    spine_cap = max 1 spine_cap;
    spine = Array.make 64 0;
    spine_csn = Array.make 64 0;
    spine_start = 0;
    spine_len = 0;
    floor_rev = 0;
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
      Array.blit t.spine_csn t.spine_start t.spine_csn 0 t.spine_len;
      t.spine_start <- 0
    end
    else begin
      let spine = Array.make (2 * cap) 0 in
      let csns = Array.make (2 * cap) 0 in
      Array.blit t.spine t.spine_start spine 0 t.spine_len;
      Array.blit t.spine_csn t.spine_start csns 0 t.spine_len;
      t.spine <- spine;
      t.spine_csn <- csns;
      t.spine_start <- 0
    end

let trim_spine t ~keep =
  let keep = max 0 keep in
  if t.spine_len > keep then begin
    let drop = t.spine_len - keep in
    t.spine_start <- t.spine_start + drop;
    t.spine_len <- keep;
    t.floor_rev <- t.floor_rev + drop
  end

let record_event t ?csn id =
  (* Bounded by construction: past twice the cap the oldest half is
     dropped, so laggards beyond it rescan rather than the spine
     growing with update volume. *)
  if t.spine_len >= 2 * t.spine_cap then trim_spine t ~keep:t.spine_cap;
  spine_make_room t;
  let i = t.spine_start + t.spine_len in
  t.spine.(i) <- id;
  t.spine_csn.(i) <- (match csn with Some c -> Csn.to_int c | None -> 0);
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

let spine_csn_range t =
  if t.spine_len = 0 then None
  else
    let lo = t.spine_csn.(t.spine_start) in
    let hi = t.spine_csn.(t.spine_start + t.spine_len - 1) in
    Some (Csn.of_int lo, Csn.of_int hi)

(* --- Mutation -------------------------------------------------------- *)

let upsert t ?csn entry =
  let id = intern t (Entry.dn entry) in
  (match t.slots.(id) with
  | Some s ->
      if s.entry = None then t.live <- t.live + 1;
      s.entry <- Some entry
  | None -> assert false);
  record_event t ?csn id

let remove t ?csn dn =
  match id_of t dn with
  | None -> ()
  | Some id -> (
      match t.slots.(id) with
      | Some s when s.entry <> None ->
          s.entry <- None;
          t.live <- t.live - 1;
          record_event t ?csn id
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
