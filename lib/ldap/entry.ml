module Attr_id = Ldap_compile.Attr_id
module Prog = Ldap_compile.Prog

(* An entry is its DN and one slot per attribute, sorted by interned
   id.  A slot keeps the raw values and, read from the schema's per-id
   table when it is built, the attribute's canonical id and matching
   rule and the values' canonical forms, so filter bytecode and the
   predicate index read an entry with no schema lookup.  An [edit]
   replaces the changed slots and shares the others.
   [hash] caches the content digest, [size] the encoded size
   ([no_size] until asked) and [der] the DER image; every new record
   starts without any of them. *)
type t = {
  dn : Dn.t;
  slots : Prog.slot array;  (* sorted by id; no slot is empty *)
  mutable hash : int64 option;
  mutable size : int;
  mutable der : string option;
}

let no_size = -1

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
   case — so no second array is kept; each value is canonicalized
   once. *)
let rec canonical_from syntax raw i =
  if i = Array.length raw then raw
  else
    let c = Value.canonical syntax raw.(i) in
    if String.equal c raw.(i) then canonical_from syntax raw (i + 1)
    else begin
      let canon = Array.copy raw in
      canon.(i) <- c;
      for k = i + 1 to Array.length raw - 1 do
        canon.(k) <- Value.canonical syntax raw.(k)
      done;
      canon
    end

let no_ints : int option array = [||]

let build_slot id values =
  let syntax = Schema.syntax_of_id id in
  let raw = Array.of_list values in
  let canon = canonical_from syntax raw 0 in
  let norm, ints =
    match (syntax : Value.syntax) with
    | Integer -> (Array.map (Value.normalize syntax) raw, Array.map int_of_string_opt canon)
    | Case_ignore | Case_exact | Telephone -> (canon, no_ints)
  in
  { Prog.id; cid = Schema.canonical_id id; syntax; raw; canon; norm; ints }

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
  { dn; slots; hash = None; size = no_size; der = None }

let dn t = t.dn
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

(* --- Mutators ---------------------------------------------------------
   Every mutator is an [edit]: each change yields the attribute's next
   slot, read from the changes before it, and the entry's slot array
   is spliced once at the end, so a modify of any number of items
   copies the array once and makes one record.  A change that alters
   nothing keeps its slot physically, as the attributes no change
   names do. *)

type mod_kind = Add_values | Delete_values | Replace_values
type mod_item = { mod_kind : mod_kind; mod_attr : string; mod_values : string list }

(* The slot of an attribute the entry does not hold: a change that
   yields it drops the attribute. *)
let absent = build_slot objectclass [ "" ]

let modifytimestamp = Attr_id.intern "modifytimestamp"

(* Whether [v] equals some value of [s] under the slot's matching rule. *)
let present (s : Prog.slot) v = Prog.mem_string s.canon (Value.canonical s.syntax v)

exception Refused of string

(* Attribute [id]'s slot after [change values] on its slot [cur].
   @raise Refused for a delete of an absent attribute or value. *)
let changed name id (cur : Prog.slot) change values =
  match change with
  | Replace_values -> ( match dedup_values values with [] -> absent | vs -> build_slot id vs)
  | Add_values when cur == absent -> (
      match dedup_values values with [] -> cur | vs -> build_slot id vs)
  | Add_values -> (
      match List.filter (fun v -> not (present cur v)) values with
      | [] -> cur
      | fresh -> build_slot id (Array.to_list cur.raw @ dedup_values fresh))
  | Delete_values when cur == absent ->
      raise (Refused (Printf.sprintf "no such attribute: %s" (lc name)))
  | Delete_values -> (
      match List.find_opt (fun v -> not (present cur v)) values with
      | Some v -> raise (Refused (Printf.sprintf "no such value: %s=%s" (lc name) v))
      | None -> (
          (* [] removes the attribute: nothing remains. *)
          let gone = List.map (Value.canonical cur.syntax) values in
          let kept k = values <> [] && not (List.mem cur.canon.(k) gone) in
          match List.filteri (fun k _ -> kept k) (Array.to_list cur.raw) with
          | [] -> absent
          | vs -> build_slot id vs))

(* An edit list: each changed attribute's newest slot, ascending by
   id; [absent] drops the attribute. *)
let rec put id s = function
  | (id', _) :: rest when id' = id -> (id, s) :: rest
  | ((id', _) as e) :: rest when id' < id -> e :: put id s rest
  | edits -> (id, s) :: edits

let held slots id = Prog.slot_index slots id >= 0

(* How many slots [edits] add, less those they drop. *)
let rec growth slots n = function
  | [] -> n
  | (id, s) :: rest ->
      let n = if s == absent then (if held slots id then n - 1 else n) else if held slots id then n else n + 1 in
      growth slots n rest

(* Fills [out] from [k] on with [slots] from [i] on merged with
   [edits]: an edited attribute's slot takes the place of its old one,
   or drops it when [absent]. *)
let rec fill slots out i k = function
  | [] -> Array.blit slots i out k (Array.length slots - i)
  | (id, s) :: rest as edits ->
      let n = Array.length slots in
      if i < n && slots.(i).Prog.id < id then begin
        out.(k) <- slots.(i);
        fill slots out (i + 1) (k + 1) edits
      end
      else
        let i = if i < n && slots.(i).Prog.id = id then i + 1 else i in
        if s == absent then fill slots out i k rest
        else begin
          out.(k) <- s;
          fill slots out i (k + 1) rest
        end

(* [slots] with [edits] applied, in one new array. *)
let splice slots edits =
  match Array.length slots + growth slots 0 edits with
  | 0 -> [||]
  | m ->
      let out = Array.make m absent in
      fill slots out 0 0 edits;
      out

(* Attribute [id]'s slot so far: the newest edit's, else [t]'s own. *)
let rec current t id = function
  | (id', s) :: _ when id' = id -> s
  | _ :: rest -> current t id rest
  | [] -> ( match Prog.slot_index t.slots id with -1 -> absent | i -> t.slots.(i))

let rec apply t edits = function
  | [] -> edits
  | { mod_kind; mod_attr; mod_values } :: rest ->
      let id =
        match mod_kind with
        | Delete_values -> ( match Attr_id.interned mod_attr with Some id -> id | None -> -1)
        | Add_values | Replace_values -> Attr_id.intern mod_attr
      in
      let cur = if id < 0 then absent else current t id edits in
      let s = changed mod_attr id cur mod_kind mod_values in
      apply t (if s == cur then edits else put id s edits) rest

let edit ?dn ?stamp t items =
  match apply t [] items with
  | exception Refused e -> Error e
  | edits -> (
      let edits =
        match stamp with
        | None -> edits
        | Some v -> put modifytimestamp (build_slot modifytimestamp [ v ]) edits
      in
      let dn = match dn with Some dn -> dn | None -> t.dn in
      match edits with
      | [] when dn == t.dn -> Ok t
      | [] -> Ok { t with dn; hash = None; size = no_size; der = None }
      | _ -> Ok { dn; slots = splice t.slots edits; hash = None; size = no_size; der = None })

let edit1 t mod_kind mod_attr mod_values = edit t [ { mod_kind; mod_attr; mod_values } ]

let delete_values t name values = edit1 t Delete_values name values

(* A replace never fails. *)
let replace_values t name values = Result.get_ok (edit1 t Replace_values name values)

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
      else { t with slots = Array.of_list kept; hash = None; size = no_size; der = None }

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

let encoded_size t ~compute =
  if t.size = no_size then t.size <- compute t;
  t.size

let der t ~compute =
  match t.der with
  | Some s -> s
  | None ->
      let s = compute t in
      t.der <- Some s;
      s

let cached_der t = t.der

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
   The anti-entropy tree hashes through here. *)
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
