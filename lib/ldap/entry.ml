module Smap = Map.Make (String)

(* Per-record memo for derived views.  Every record gets a memo of its
   own: the field itself is immutable but its contents are not, so a
   [{ t with ... }] copy would otherwise share (and serve stale) cached
   state.  The value mutators ([add_values], [delete_values],
   [replace_values]) go through [derive], which seeds the new memo with
   a compiled view derived from the parent's: one attribute's slot is
   rebuilt, the others are shared.  The content hash is never carried
   over — it is recomputed for the new record when first asked for. *)
type memo = {
  mutable view : (Schema.t * Ldap_compile.Prog.centry) option;
      (* keyed by the physical identity of the schema it was built
         under, compared with [==] — schemas are built once and
         shared, so pointer identity is the right cache key *)
  mutable content_hash : int64 option;
}

let fresh_memo () = { view = None; content_hash = None }

(* [order] keeps first-seen attribute order for stable printing. *)
type t = { dn : Dn.t; attrs : string list Smap.t; order : string list; memo : memo }

let lc = Value.lowercase

let dedup_values = function
  | ([] | [ _ ]) as values -> values
  | values ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun v -> if Hashtbl.mem seen v then false else (Hashtbl.add seen v (); true))
        values

let make dn pairs =
  let attrs, order =
    List.fold_left
      (fun (m, order) (name, values) ->
        let name = lc name in
        let existing = Option.value ~default:[] (Smap.find_opt name m) in
        let merged = dedup_values (existing @ values) in
        let order = if Smap.mem name m then order else name :: order in
        (Smap.add name merged m, order))
      (Smap.empty, []) pairs
  in
  { dn; attrs; order = List.rev order; memo = fresh_memo () }

let dn t = t.dn
let with_dn t dn = { t with dn; memo = fresh_memo () }

let attributes t =
  List.filter_map
    (fun name ->
      match Smap.find_opt name t.attrs with
      | Some (_ :: _ as vs) -> Some (name, vs)
      | Some [] | None -> None)
    t.order

let rec fold_order attrs f acc = function
  | [] -> acc
  | name :: rest ->
      let acc =
        match Smap.find name attrs with
        | [] -> acc
        | vs -> f acc name vs
        | exception Not_found -> acc
      in
      fold_order attrs f acc rest

let fold_attributes t ~init ~f = fold_order t.attrs f init t.order

let get t name = match Smap.find (lc name) t.attrs with vs -> vs | exception Not_found -> []
let has_attribute t name = get t name <> []

let has_value ?(syntax = Value.Case_ignore) t name v =
  List.exists (fun x -> Value.equal syntax x v) (get t name)

let object_classes t = get t "objectclass"

let is_referral t =
  List.exists (fun c -> String.length c = 8 && lc c = "referral") (object_classes t)

let referral_urls t = get t "ref"

(* --- Compiled view --------------------------------------------------- *)

let build_slot schema name vs =
  let open Ldap_compile in
  let syntax = Schema.syntax_of schema name in
  let vs = Array.of_list vs in
  let canon = Array.map (Value.canonical syntax) vs in
  let norm, ints =
    match (syntax : Value.syntax) with
    | Integer ->
        (Array.map (Value.normalize syntax) vs, Array.map int_of_string_opt canon)
    | Case_ignore | Case_exact | Telephone -> (canon, [||])
  in
  {
    Prog.id = Attr_id.intern name;
    cid = Attr_id.intern (Schema.canonical_attr schema name);
    syntax;
    canon;
    norm;
    ints;
  }

let build_view schema t =
  Ldap_compile.Prog.make_centry ~dn_canon:(Dn.canonical t.dn)
    (Array.of_list (List.map (fun (name, vs) -> build_slot schema name vs) (attributes t)))

let compiled schema t =
  match t.memo.view with
  | Some (w, ce) when w == schema -> ce
  | _ ->
      let ce = build_view schema t in
      t.memo.view <- Some (schema, ce);
      ce

let probe_slots schema t ~wanted =
  match t.memo.view with
  | Some (w, ce) when w == schema -> ce.Ldap_compile.Prog.slots
  | _ ->
      let slots =
        Smap.fold
          (fun name vs acc ->
            if vs <> [] && wanted name then build_slot schema name vs :: acc
            else acc)
          t.attrs []
        |> Array.of_list
      in
      Array.sort (fun (a : Ldap_compile.Prog.slot) b -> Int.compare a.id b.id) slots;
      slots

(* [ce] with attribute [name]'s slot replaced by one over [values]
   (dropped when [values] is empty). *)
let resplice schema (ce : Ldap_compile.Prog.centry) name values =
  let open Ldap_compile in
  let i = Prog.slot_index ce (Attr_id.intern name) in
  let slots = ce.Prog.slots in
  let n = Array.length slots in
  match values with
  | [] when i < 0 -> ce
  | [] ->
      { ce with
        Prog.slots =
          Array.init (n - 1) (fun k -> if k < i then slots.(k) else slots.(k + 1)) }
  | vs when i >= 0 ->
      let slots = Array.copy slots in
      slots.(i) <- build_slot schema name vs;
      { ce with Prog.slots }
  | vs ->
      let slots = Array.append slots [| build_slot schema name vs |] in
      Prog.make_centry ~dn_canon:ce.Prog.dn_canon slots

(* The successor of [t] whose only changed attribute is [name]. *)
let derive t name ~attrs ~order =
  let memo = fresh_memo () in
  (match t.memo.view with
  | Some (schema, ce) ->
      let values = Option.value ~default:[] (Smap.find_opt name attrs) in
      memo.view <- Some (schema, resplice schema ce name values)
  | None -> ());
  { t with attrs; order; memo }

let add_values ?(syntax = Value.Case_ignore) t name values =
  let name = lc name in
  let existing = get t name in
  let fresh =
    List.filter (fun v -> not (List.exists (fun x -> Value.equal syntax x v) existing)) values
  in
  if fresh = [] && existing <> [] then t
  else
    let order = if Smap.mem name t.attrs then t.order else t.order @ [ name ] in
    derive t name ~attrs:(Smap.add name (existing @ dedup_values fresh) t.attrs) ~order

let delete_values ?(syntax = Value.Case_ignore) t name values =
  let name = lc name in
  let existing = get t name in
  if existing = [] then Error (Printf.sprintf "no such attribute: %s" name)
  else if values = [] then Ok (derive t name ~attrs:(Smap.remove name t.attrs) ~order:t.order)
  else
    let missing =
      List.filter (fun v -> not (List.exists (fun x -> Value.equal syntax x v) existing)) values
    in
    match missing with
    | v :: _ -> Error (Printf.sprintf "no such value: %s=%s" name v)
    | [] ->
        let remaining =
          List.filter
            (fun x -> not (List.exists (fun v -> Value.equal syntax x v) values))
            existing
        in
        let attrs =
          if remaining = [] then Smap.remove name t.attrs
          else Smap.add name remaining t.attrs
        in
        Ok (derive t name ~attrs ~order:t.order)

let replace_values t name values =
  let name = lc name in
  if values = [] then derive t name ~attrs:(Smap.remove name t.attrs) ~order:t.order
  else
    let order = if Smap.mem name t.attrs then t.order else t.order @ [ name ] in
    derive t name ~attrs:(Smap.add name (dedup_values values) t.attrs) ~order

let select t requested =
  match requested with
  | None -> t
  | Some names ->
      if List.exists (fun n -> n = "*") names then t
      else
        let keep = List.map lc names in
        let attrs =
          Smap.filter (fun name _ -> List.mem name keep) t.attrs
        in
        { t with attrs; memo = fresh_memo () }

let normalized_attrs t =
  Smap.bindings t.attrs
  |> List.filter (fun (_, vs) -> vs <> [])
  |> List.map (fun (name, vs) -> (name, List.sort String.compare vs))

let equal a b = Dn.equal a.dn b.dn && normalized_attrs a = normalized_attrs b

let cached_hash t ~compute =
  match t.memo.content_hash with
  | Some h -> h
  | None ->
      let h = compute t in
      t.memo.content_hash <- Some h;
      h

(* Canonical rendering: canonical DN, then attributes sorted by name
   with values sorted within each attribute — exactly the data [equal]
   compares, so the digest is a pure function of the equality class.
   The anti-entropy tree and the node cursor's sent-image table both
   hash through here, sharing the per-record memo. *)
let canonical_rendering t =
  let b = Buffer.create 128 in
  Buffer.add_string b (Dn.canonical t.dn);
  List.iter
    (fun (n, vs) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b n;
      List.iter
        (fun v ->
          Buffer.add_char b '\x01';
          Buffer.add_string b v)
        vs)
    (normalized_attrs t);
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
