open Ldap

type config = { segments : int; branch_factor : int }

let default_config = { segments = 256; branch_factor = 16 }

let check_config cfg =
  if cfg.segments <= 0 || cfg.branch_factor <= 0 then
    invalid_arg "Antientropy.Tree: segments and branch_factor must be positive"

let branch_count cfg =
  check_config cfg;
  (cfg.segments + cfg.branch_factor - 1) / cfg.branch_factor

(* Root, branch tier, segment tier. *)
let depth _ = 3

(* --- Entry hashing ----------------------------------------------------
   64-bit hashes taken from the leading bytes of an MD5 digest over a
   canonical rendering: DNs in canonical form, attributes sorted by
   name with values sorted within each attribute.  Entry.attributes
   lists attributes in interned-id order and values in stored order,
   neither of which replicas share, so sorting here is what makes two
   replicas holding the same logical entry agree on its hash. *)

let hash64 s =
  Bytes.get_int64_be (Bytes.unsafe_of_string (Digest.string s)) 0

(* Memoized on the entry ({!Entry.content_hash64}): rebuilding trees
   across anti-entropy rounds re-hashes only entries mutated since the
   last round. *)

(* The segment is keyed by the DN alone: mutating an entry's attributes
   changes its hash but never moves it between segments, so a single
   mutation flips exactly one segment-to-root path. *)
let segment_of_dn cfg dn =
  check_config cfg;
  Int64.to_int (hash64 (Dn.canonical dn)) land max_int mod cfg.segments

(* --- Tree construction ------------------------------------------------
   Segment hash = XOR of member entry hashes: order-independent and
   incrementally mergeable (the tictac-AAE combination).  Branch and
   root hashes XOR their children, so the root is independent of the
   segment count — two trees over identical content agree at the root
   whatever their shapes. *)

type t = { config : config; seg : int64 array }

let of_seq ?(config = default_config) entries =
  check_config config;
  let seg = Array.make config.segments 0L in
  Seq.iter
    (fun e ->
      let i = segment_of_dn config (Entry.dn e) in
      seg.(i) <- Int64.logxor seg.(i) (Entry.content_hash64 e))
    entries;
  { config; seg }


let segment t i =
  if i < 0 || i >= t.config.segments then
    invalid_arg "Antientropy.Tree.segment: index out of range";
  t.seg.(i)

let segments_of_branch cfg b =
  let n = branch_count cfg in
  if b < 0 || b >= n then
    invalid_arg "Antientropy.Tree.segments_of_branch: index out of range";
  let lo = b * cfg.branch_factor in
  let hi = min cfg.segments (lo + cfg.branch_factor) in
  List.init (hi - lo) (fun i -> lo + i)

let branch t b =
  List.fold_left
    (fun acc i -> Int64.logxor acc t.seg.(i))
    0L
    (segments_of_branch t.config b)

let branches t = List.init (branch_count t.config) (fun b -> (b, branch t b))

let root t = Array.fold_left Int64.logxor 0L t.seg

(* Indices whose remote hash differs from the local tree's.  The remote
   list is complete for the tier (or the requested branches), so only
   listed indices can differ. *)
let diff_branches t remote =
  List.filter_map
    (fun (b, h) -> if Int64.equal (branch t b) h then None else Some b)
    remote

let diff_segments t remote =
  List.filter_map
    (fun (i, h) -> if Int64.equal (segment t i) h then None else Some i)
    remote
