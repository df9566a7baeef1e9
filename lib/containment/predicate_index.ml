open Ldap
module Attr_id = Ldap_compile.Attr_id
module Prog = Ldap_compile.Prog

(* Substring anchors keep at most this many bytes of the initial
   component; lookups probe every prefix of an entry value up to the
   same width, so longer filter prefixes are truncated (widening the
   candidate set, never narrowing it). *)
let prefix_width = 4

type ids = (int, unit) Hashtbl.t

(* Ordering bounds for one attribute and one direction.  [sorted] is a
   lazily rebuilt array of the distinct bound keys in matching-rule
   order, used to binary-search the range of bounds satisfied by an
   entry value. *)
type bounds = {
  syntax : Value.syntax;
  by_bound : (string, ids) Hashtbl.t;  (* canonical bound -> subscriber ids *)
  mutable sorted : string array option;  (* None = dirty *)
}

(* Anchors are keyed by the {e interned id} of the canonical attribute
   name, matching the [cid] of the entries' slots, so probing does no
   per-update string canonicalization at all. *)
type anchor =
  | A_eq of Attr_id.t * string  (* attr, canonical value *)
  | A_prefix of Attr_id.t * string  (* attr, normalized prefix, <= width *)
  | A_attr of Attr_id.t  (* attr presence *)
  | A_ge of Attr_id.t * Value.syntax * string  (* attr, canonical lower bound *)
  | A_le of Attr_id.t * Value.syntax * string  (* attr, canonical upper bound *)

type registration = Anchors of anchor list | Fallback

(* Equality and prefix anchors are grouped by attribute first, and
   [anchored] counts the anchors on each attribute: a probe looks an
   entry attribute up there once, and its values only when some filter
   anchors there, with no key tuple or prefix string built for
   attributes nobody anchors. *)
type t = {
  eq : (Attr_id.t, (string, ids) Hashtbl.t) Hashtbl.t;  (* attr -> canonical value *)
  prefix : (Attr_id.t, (string, ids) Hashtbl.t) Hashtbl.t;  (* attr -> prefix *)
  attr : (Attr_id.t, ids) Hashtbl.t;
  ge : (Attr_id.t, bounds) Hashtbl.t;  (* attr -> bounds *)
  le : (Attr_id.t, bounds) Hashtbl.t;
  fallback : ids;
  regs : (int, registration) Hashtbl.t;
  anchored : (Attr_id.t, int) Hashtbl.t;  (* attr -> anchors on it, when > 0 *)
}

let create () =
  {
    eq = Hashtbl.create 64;
    prefix = Hashtbl.create 64;
    attr = Hashtbl.create 16;
    ge = Hashtbl.create 8;
    le = Hashtbl.create 8;
    fallback = Hashtbl.create 8;
    regs = Hashtbl.create 64;
    anchored = Hashtbl.create 32;
  }


(* --- anchor derivation ------------------------------------------------ *)

let truncate_prefix p =
  if String.length p <= prefix_width then p else String.sub p 0 prefix_width

let pred_anchor p =
  let canon a = Attr_id.intern (Schema.canonical_attr a) in
  let syntax a = Schema.syntax_of a in
  match p with
  | Filter.Equality (a, v) | Filter.Approx (a, v) ->
      (* Approx is matched as equality by [Filter.matches]. *)
      Some (A_eq (canon a, Value.canonical (syntax a) v))
  | Filter.Greater_eq (a, v) ->
      Some (A_ge (canon a, syntax a, Value.canonical (syntax a) v))
  | Filter.Less_eq (a, v) ->
      Some (A_le (canon a, syntax a, Value.canonical (syntax a) v))
  | Filter.Present a -> Some (A_attr (canon a))
  | Filter.Substrings (a, { initial; _ }) -> (
      (* [Value.matches_substring] is a literal prefix test on
         normalized forms, so a non-empty initial component anchors on
         its normalized prefix regardless of syntax. *)
      match initial with
      | Some p when Value.normalize (syntax a) p <> "" ->
          Some (A_prefix (canon a, truncate_prefix (Value.normalize (syntax a) p)))
      | Some _ | None -> Some (A_attr (canon a)))

(* Smaller = more selective; used to pick the best AND conjunct. *)
let anchor_score = function
  | A_eq _ -> 0
  | A_prefix _ -> 1
  | A_ge _ | A_le _ -> 2
  | A_attr _ -> 3

let list_score anchors =
  List.fold_left (fun acc a -> max acc (anchor_score a)) 0 anchors

(* [Some anchors]: every entry the filter matches hits one of the
   anchors.  [None]: no sound anchoring; the subscriber must fall back
   to being a candidate for every update. *)
let rec anchors_of t = function
  | Filter.Pred p -> Option.map (fun a -> [ a ]) (pred_anchor p)
  | Filter.Not _ -> None
  | Filter.Or gs ->
      (* A match satisfies some disjunct, so all disjuncts must be
         anchorable and the union covers the OR. *)
      List.fold_left
        (fun acc g ->
          match (acc, anchors_of t g) with
          | Some acc, Some anchors -> Some (List.rev_append anchors acc)
          | _, _ -> None)
        (Some []) gs
  | Filter.And gs ->
      (* A match satisfies every conjunct, so any one anchorable
         conjunct covers the AND; prefer the most selective. *)
      List.filter_map (anchors_of t) gs
      |> List.fold_left
           (fun best anchors ->
             match best with
             | Some b
               when (list_score b, List.length b)
                    <= (list_score anchors, List.length anchors) ->
                 best
             | Some _ | None -> Some anchors)
           None

(* --- registration ----------------------------------------------------- *)

let bucket_add tbl key id =
  let ids =
    match Hashtbl.find_opt tbl key with
    | Some ids -> ids
    | None ->
        let ids = Hashtbl.create 4 in
        Hashtbl.add tbl key ids;
        ids
  in
  Hashtbl.replace ids id ()

let bucket_remove tbl key id =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some ids ->
      Hashtbl.remove ids id;
      if Hashtbl.length ids = 0 then begin
        Hashtbl.remove tbl key;
        true
      end
      else false

let keyed_add tbl attr key id =
  let by_key =
    match Hashtbl.find_opt tbl attr with
    | Some by_key -> by_key
    | None ->
        let by_key = Hashtbl.create 8 in
        Hashtbl.add tbl attr by_key;
        by_key
  in
  bucket_add by_key key id

let keyed_remove tbl attr key id =
  match Hashtbl.find_opt tbl attr with
  | None -> ()
  | Some by_key ->
      if bucket_remove by_key key id && Hashtbl.length by_key = 0 then
        Hashtbl.remove tbl attr

let bounds_for tbl attr syntax =
  match Hashtbl.find_opt tbl attr with
  | Some b -> b
  | None ->
      let b = { syntax; by_bound = Hashtbl.create 8; sorted = None } in
      Hashtbl.add tbl attr b;
      b

let bounds_add tbl attr syntax bound id =
  let b = bounds_for tbl attr syntax in
  if not (Hashtbl.mem b.by_bound bound) then b.sorted <- None;
  bucket_add b.by_bound bound id

let bounds_remove tbl attr bound id =
  match Hashtbl.find_opt tbl attr with
  | None -> ()
  | Some b -> if bucket_remove b.by_bound bound id then b.sorted <- None

let anchor_attr = function
  | A_eq (a, _) | A_prefix (a, _) | A_attr a | A_ge (a, _, _) | A_le (a, _, _) -> a

let count_anchor t anchor ~by =
  let a = anchor_attr anchor in
  match Option.value (Hashtbl.find_opt t.anchored a) ~default:0 + by with
  | 0 -> Hashtbl.remove t.anchored a
  | n -> Hashtbl.replace t.anchored a n

let apply_anchor t id anchor =
  count_anchor t anchor ~by:1;
  match anchor with
  | A_eq (a, v) -> keyed_add t.eq a v id
  | A_prefix (a, p) -> keyed_add t.prefix a p id
  | A_attr a -> bucket_add t.attr a id
  | A_ge (a, syn, v) -> bounds_add t.ge a syn v id
  | A_le (a, syn, v) -> bounds_add t.le a syn v id

let retract_anchor t id anchor =
  count_anchor t anchor ~by:(-1);
  match anchor with
  | A_eq (a, v) -> keyed_remove t.eq a v id
  | A_prefix (a, p) -> keyed_remove t.prefix a p id
  | A_attr a -> ignore (bucket_remove t.attr a id)
  | A_ge (a, _, v) -> bounds_remove t.ge a v id
  | A_le (a, _, v) -> bounds_remove t.le a v id

let remove t id =
  match Hashtbl.find_opt t.regs id with
  | None -> ()
  | Some reg ->
      (match reg with
      | Fallback -> Hashtbl.remove t.fallback id
      | Anchors anchors -> List.iter (retract_anchor t id) anchors);
      Hashtbl.remove t.regs id

let add t id filter =
  remove t id;
  let reg =
    match anchors_of t filter with
    | Some anchors ->
        List.iter (apply_anchor t id) anchors;
        Anchors anchors
    | None ->
        Hashtbl.replace t.fallback id ();
        Fallback
  in
  Hashtbl.replace t.regs id reg

(* --- lookup ----------------------------------------------------------- *)

type candidates = ids

let mem c id = Hashtbl.mem c id
let iter f c = Hashtbl.iter (fun id () -> f id) c

let collect out ids = Hashtbl.iter (fun id () -> Hashtbl.replace out id ()) ids

let sorted_bounds b =
  match b.sorted with
  | Some s -> s
  | None ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) b.by_bound [] in
      let s = Array.of_list (List.sort (Value.compare b.syntax) keys) in
      b.sorted <- Some s;
      s

(* Number of bounds [<= v] (ge lookups collect that prefix of the
   sorted array; le lookups collect the rest adjusted for equality). *)
let count_le b s v =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare b.syntax s.(mid) v <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let probe_bounds out tbl attr v ~dir =
  match Hashtbl.find_opt tbl attr with
  | None -> ()
  | Some b ->
      let s = sorted_bounds b in
      let le_count = count_le b s v in
      let first, last =
        match dir with
        | `Ge -> (0, le_count - 1)  (* bounds <= v satisfy (attr>=bound) *)
        | `Le ->
            (* bounds >= v satisfy (attr<=bound); back up over the
               bounds equal to v. *)
            let first = ref le_count in
            while !first > 0 && Value.compare b.syntax s.(!first - 1) v = 0 do
              decr first
            done;
            (!first, Array.length s - 1)
      in
      for i = first to last do
        match Hashtbl.find_opt b.by_bound s.(i) with
        | Some ids -> collect out ids
        | None -> ()
      done

(* Probing walks the entry's slots: interned canonical-attribute ids
   plus pre-canonicalized and pre-normalized values.  A slot whose
   attribute anchors no filter costs one lookup. *)
let probe_entry t out entry =
  let probe tbl key =
    match Hashtbl.find_opt tbl key with Some ids -> collect out ids | None -> ()
  in
  Array.iter
    (fun (s : Prog.slot) ->
      let cid = s.Prog.cid in
      if Hashtbl.mem t.anchored cid then begin
        probe t.attr cid;
        let by_value = Hashtbl.find_opt t.eq cid in
        let by_prefix = Hashtbl.find_opt t.prefix cid in
        let canon = s.Prog.canon and norm = s.Prog.norm in
        for k = 0 to Array.length canon - 1 do
          let c = canon.(k) in
          (match by_value with Some tbl -> probe tbl c | None -> ());
          (match by_prefix with
          | Some tbl ->
              let n = norm.(k) in
              for len = 1 to min prefix_width (String.length n) do
                probe tbl (String.sub n 0 len)
              done
          | None -> ());
          probe_bounds out t.ge cid c ~dir:`Ge;
          probe_bounds out t.le cid c ~dir:`Le
        done
      end)
    (Entry.compiled entry)

let affected t ~before ~after =
  let out = Hashtbl.create 16 in
  collect out t.fallback;
  Option.iter (probe_entry t out) before;
  Option.iter (probe_entry t out) after;
  out
