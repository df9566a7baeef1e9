type slot = {
  id : Attr_id.t;
  cid : Attr_id.t;
  syntax : Value.syntax;
  raw : string array;
  canon : string array;
  norm : string array;
  ints : int option array;
}

(* Binary search over the id-sorted slot array; -1 when absent.  Top
   level, so no closure is allocated per call. *)
let rec search slots id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let s = (Array.unsafe_get slots mid).id in
    if s = id then mid else if s < id then search slots id (mid + 1) hi else search slots id lo mid

let slot_index slots id = search slots id 0 (Array.length slots)

type cmp = { c_id : Attr_id.t; c_ge : bool; c_v : string }

type cmp_int = {
  i_id : Attr_id.t;
  i_ge : bool;
  i_v : int option;
  i_vs : string;
}

type sub = {
  s_id : Attr_id.t;
  s_initial : string option;
  s_any : string array;
  s_final : string option;
}

type t =
  | P_true
  | P_false
  | P_all of t array
  | P_any of t array
  | P_not of t
  | P_present of Attr_id.t
  | P_eq of Attr_id.t * string
  | P_cmp of cmp
  | P_cmp_int of cmp_int
  | P_sub of sub

let rec mem_from (a : string array) v i =
  i < Array.length a && (String.equal (Array.unsafe_get a i) v || mem_from a v (i + 1))

let mem_string a v = mem_from a v 0

(* Mirrors Value.find_from, over already-normalized strings. *)
let find_from s ~from pat =
  let n = String.length s and m = String.length pat in
  if m = 0 then from
  else
    let rec go i =
      if i + m > n then -1 else if String.sub s i m = pat then i + m else go (i + 1)
    in
    go from

(* Mirrors Value.matches_substring with the normalization pre-applied
   to both the pattern segments (at compile time) and the value (in
   the slot's [norm] column). *)
let sub_matches (p : sub) v =
  let pos =
    match p.s_initial with
    | None -> 0
    | Some i ->
        let n = String.length i in
        if String.length v >= n && String.sub v 0 n = i then n else -1
  in
  if pos < 0 then false
  else
    let n_any = Array.length p.s_any in
    let rec consume pos k =
      if k >= n_any then pos
      else
        match find_from v ~from:pos p.s_any.(k) with
        | -1 -> -1
        | pos' -> consume pos' (k + 1)
    in
    let pos = consume pos 0 in
    if pos < 0 then false
    else
      match p.s_final with
      | None -> true
      | Some f ->
          let n = String.length f and vn = String.length v in
          vn - pos >= n && String.sub v (vn - n) n = f

(* Replicates Value.compare_integer's Some/None lattice using the
   pre-parsed ints; the string fallback only fires when neither side
   parses, where canonical = normalized so [i_vs]/[canon] are the
   exact strings the interpreter would compare. *)
let cmp_int_value (p : cmp_int) (x : int option) (xs : string) =
  match (x, p.i_v) with
  | Some a, Some b -> Int.compare a b
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> String.compare xs p.i_vs

(* The loops below are top-level recursive functions rather than local
   ones, so evaluating a program allocates no closures. *)
let rec cmp_from c canon k =
  k < Array.length canon
  && (let d = String.compare (Array.unsafe_get canon k) c.c_v in
      (if c.c_ge then d >= 0 else d <= 0) || cmp_from c canon (k + 1))

let rec cmp_int_from c s k =
  k < Array.length s.canon
  && (let d = cmp_int_value c s.ints.(k) s.canon.(k) in
      (if c.i_ge then d >= 0 else d <= 0) || cmp_int_from c s (k + 1))

let rec sub_from p norm k =
  k < Array.length norm && (sub_matches p (Array.unsafe_get norm k) || sub_from p norm (k + 1))

let rec matches p slots =
  match p with
  | P_true -> true
  | P_false -> false
  | P_not g -> not (matches g slots)
  | P_all gs -> all gs slots 0
  | P_any gs -> any gs slots 0
  | P_present id -> slot_index slots id >= 0
  | P_eq (id, v) -> (
      match slot_index slots id with
      | -1 -> false
      | i -> mem_string slots.(i).canon v)
  | P_cmp c -> (
      match slot_index slots c.c_id with -1 -> false | i -> cmp_from c slots.(i).canon 0)
  | P_cmp_int c -> (
      match slot_index slots c.i_id with -1 -> false | i -> cmp_int_from c slots.(i) 0)
  | P_sub p -> (
      match slot_index slots p.s_id with -1 -> false | i -> sub_from p slots.(i).norm 0)

and all gs slots i =
  i >= Array.length gs || (matches (Array.unsafe_get gs i) slots && all gs slots (i + 1))

and any gs slots i =
  i < Array.length gs && (matches (Array.unsafe_get gs i) slots || any gs slots (i + 1))
