module Attr_id = Ldap_compile.Attr_id
module Prog = Ldap_compile.Prog

(* An entry is its DN and one slot per attribute, sorted by interned
   id.  A slot keeps the raw values and, resolved once from the schema,
   the attribute's matching rule and the values' canonical forms, so
   filter bytecode and the predicate index read an entry with no
   schema lookup.  Mutators replace one slot and share the others.  [hash] caches the content digest; every new record
   starts without one. *)
type t = {
  dn : Dn.t;
  slots : Prog.slot array;  (* sorted by id; no slot is empty *)
  mutable hash : int64 option;
}

let lc = Value.lowercase
let objectclass = Attr_id.intern "objectclass"

let dedup_values = function
  | ([] | [ _ ]) as values -> values
  | values ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun v -> if Hashtbl.mem seen v then false else (Hashtbl.add seen v (); true))
        values

(* [raw] itself while every value is canonical already — the usual
   case — so no second array is kept. *)
let rec canonical_from syntax raw i =
  if i = Array.length raw then raw
  else if String.equal (Value.canonical syntax raw.(i)) raw.(i) then canonical_from syntax raw (i + 1)
  else Array.map (Value.canonical syntax) raw

let no_ints : int option array = [||]

let build_slot id values =
  let name = Attr_id.name id in
  let syntax = Schema.syntax_of name in
  let raw = Array.of_list values in
  let canon = canonical_from syntax raw 0 in
  let norm, ints =
    match (syntax : Value.syntax) with
    | Integer -> (Array.map (Value.normalize syntax) raw, Array.map int_of_string_opt canon)
    | Case_ignore | Case_exact | Telephone -> (canon, no_ints)
  in
  let cid = Attr_id.intern (Schema.canonical_attr name) in
  { Prog.id; cid; syntax; raw; canon; norm; ints }

let by_id (a : Prog.slot) (b : Prog.slot) = Int.compare a.id b.id

let make dn pairs =
  (* Repeated names merge, their values in the given order. *)
  let merged =
    List.fold_left
      (fun acc (name, values) ->
        let id = Attr_id.intern name in
        match List.assoc_opt id acc with
        | Some earlier -> (id, earlier @ values) :: List.remove_assoc id acc
        | None -> (id, values) :: acc)
      [] pairs
  in
  let build (id, values) =
    match dedup_values values with [] -> None | vs -> Some (build_slot id vs)
  in
  let slots = Array.of_list (List.filter_map build merged) in
  Array.sort by_id slots;
  { dn; slots; hash = None }

let dn t = t.dn
let with_dn t dn = { t with dn; hash = None }
let compiled t = t.slots

let values t id =
  match Prog.slot_index t.slots id with -1 -> [||] | i -> t.slots.(i).Prog.raw

(* The slot of the attribute [name], or -1; an unknown name is not interned. *)
let index t name =
  match Attr_id.interned name with None -> -1 | Some id -> Prog.slot_index t.slots id

let attributes t =
  Array.fold_right
    (fun (s : Prog.slot) acc -> (Attr_id.name s.id, Array.to_list s.raw) :: acc)
    t.slots []

let rec fold_from slots f acc i =
  if i = Array.length slots then acc
  else
    let s = slots.(i) in
    fold_from slots f (f acc (Attr_id.name s.Prog.id) s.raw) (i + 1)

let fold_attributes t ~init ~f = fold_from t.slots f init 0
let get t name = match index t name with -1 -> [] | i -> Array.to_list t.slots.(i).raw
let has_attribute t name = index t name >= 0

let has_value ?(syntax = Value.Case_ignore) t name v =
  match index t name with
  | -1 -> false
  | i -> Array.exists (fun x -> Value.equal syntax x v) t.slots.(i).raw


let is_referral t =
  Array.exists (fun c -> String.length c = 8 && lc c = "referral") (values t objectclass)

let referral_urls t = get t "ref"

(* --- Mutators --------------------------------------------------------- *)

(* [t] with attribute [id]'s slot replaced by one over [values], or
   dropped when [values] is empty; every other slot is shared. *)
let resplice t id values =
  let slots = t.slots in
  let i = Prog.slot_index slots id in
  let slots =
    match values with
    | [] when i < 0 -> slots
    | [] -> Array.append (Array.sub slots 0 i) (Array.sub slots (i + 1) (Array.length slots - i - 1))
    | vs when i >= 0 ->
        let slots = Array.copy slots in
        slots.(i) <- build_slot id vs;
        slots
    | vs ->
        let n = Array.length slots in
        let rec at k = if k < n && slots.(k).Prog.id < id then at (k + 1) else k in
        let p = at 0 in
        let out = Array.make (n + 1) (build_slot id vs) in
        Array.blit slots 0 out 0 p;
        Array.blit slots p out (p + 1) (n - p);
        out
  in
  if slots == t.slots then t else { t with slots; hash = None }

(* Whether [v] equals some value of [s] under the slot's matching rule. *)
let present (s : Prog.slot) v = Prog.mem_string s.canon (Value.canonical s.syntax v)

let add_values t name values =
  let id = Attr_id.intern name in
  match Prog.slot_index t.slots id with
  | -1 -> resplice t id (dedup_values values)
  | i -> (
      let s = t.slots.(i) in
      match List.filter (fun v -> not (present s v)) values with
      | [] -> t
      | fresh -> resplice t id (Array.to_list s.raw @ dedup_values fresh))

let delete_values t name values =
  match index t name with
  | -1 -> Error (Printf.sprintf "no such attribute: %s" (lc name))
  | i -> (
      let s = t.slots.(i) in
      match List.find_opt (fun v -> not (present s v)) values with
      | Some v -> Error (Printf.sprintf "no such value: %s=%s" (lc name) v)
      | None ->
          (* [] removes the attribute: nothing remains. *)
          let gone = List.map (Value.canonical s.syntax) values in
          let kept k = values <> [] && not (List.mem s.canon.(k) gone) in
          Ok (resplice t s.id (List.filteri (fun k _ -> kept k) (Array.to_list s.raw))))

let replace_values t name values = resplice t (Attr_id.intern name) (dedup_values values)

let select t requested =
  match requested with
  | None -> t
  | Some names when List.mem "*" names -> t
  | Some names ->
      let keep = List.filter_map Attr_id.interned names in
      let kept =
        Array.fold_right
          (fun (s : Prog.slot) acc -> if List.mem s.id keep then s :: acc else acc)
          t.slots []
      in
      if List.compare_length_with kept (Array.length t.slots) = 0 then t
      else { t with slots = Array.of_list kept; hash = None }

(* --- Equality and the content digest ----------------------------------- *)

let sorted_values (s : Prog.slot) =
  if Array.length s.raw < 2 then s.raw
  else
    let vs = Array.copy s.raw in
    Array.sort String.compare vs;
    vs

(* Both slot arrays are sorted by id, and ids name attributes one to
   one, so equal entries line up slot by slot. *)
let equal a b =
  Dn.equal a.dn b.dn
  && Array.length a.slots = Array.length b.slots
  && Array.for_all2
       (fun (x : Prog.slot) (y : Prog.slot) ->
         x.id = y.id && (x.raw == y.raw || sorted_values x = sorted_values y))
       a.slots b.slots

let cached_hash t ~compute =
  match t.hash with
  | Some h -> h
  | None ->
      let h = compute t in
      t.hash <- Some h;
      h

(* Canonical rendering: canonical DN, then attributes sorted by name
   with values sorted within each attribute — exactly the data [equal]
   compares, so the digest is a pure function of the equality class.
   The anti-entropy tree and the node cursor's sent-image table both
   hash through here, sharing the per-record cache. *)
let canonical_rendering t =
  let b = Buffer.create 128 in
  Buffer.add_string b (Dn.canonical t.dn);
  let by_name = Array.copy t.slots in
  Array.sort
    (fun (x : Prog.slot) (y : Prog.slot) ->
      String.compare (Attr_id.name x.id) (Attr_id.name y.id))
    by_name;
  Array.iter
    (fun (s : Prog.slot) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b (Attr_id.name s.id);
      Array.iter
        (fun v ->
          Buffer.add_char b '\x01';
          Buffer.add_string b v)
        (sorted_values s))
    by_name;
  Buffer.contents b

let hash64_of_string s =
  Bytes.get_int64_be (Bytes.unsafe_of_string (Digest.string s)) 0

let content_hash64 t =
  cached_hash t ~compute:(fun t -> hash64_of_string (canonical_rendering t))

let pp ppf t =
  Format.fprintf ppf "dn: %s" (Dn.to_string t.dn);
  List.iter
    (fun (name, vs) ->
      List.iter (fun v -> Format.fprintf ppf "@\n%s: %s" name v) vs)
    (attributes t)
