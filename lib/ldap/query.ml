type attrs = All | Select of string list

type t = {
  base : Dn.t;
  scope : Scope.t;
  filter : Filter.t;
  attrs : attrs;
  manage_dsa_it : bool;
}

let norm_attrs = function
  | All -> All
  | Select names ->
      if List.mem "*" names then All
      else Select (List.sort_uniq String.compare (List.map String.lowercase_ascii names))

let make ?(scope = Scope.Sub) ?(attrs = All) ?(manage_dsa_it = false) ~base filter =
  { base; scope; filter = Filter.normalize filter; attrs = norm_attrs attrs; manage_dsa_it }

let of_strings ?scope ~base filter_s =
  match Dn.of_string base with
  | Error e -> Error e
  | Ok base -> (
      match Filter.of_string filter_s with
      | Error e -> Error e
      | Ok f -> Ok (make ?scope ~base f))

let attrs_subset ~sub ~super =
  match (sub, super) with
  | _, All -> true
  | All, Select _ -> false
  | Select a, Select b -> List.for_all (fun x -> List.mem x b) a

let attr_list = function All -> None | Select l -> Some l

let in_scope t dn =
  match t.scope with
  | Scope.Base -> Dn.equal t.base dn
  | Scope.One -> Dn.parent_of t.base dn
  | Scope.Sub -> Dn.ancestor_of t.base dn

(* Region containment from algorithm QC (section 4): the (base, scope)
   region of [inner] must fall inside that of [outer]. *)
let region_subset ~inner ~outer =
  if Dn.equal outer.base inner.base then Scope.covers ~outer:outer.scope ~inner:inner.scope
  else if not (Dn.ancestor_of ~strict:true outer.base inner.base) then false
  else
    match outer.scope with
    | Scope.Sub -> true
    | Scope.One ->
        (* A one-level outer region only contains children of its base:
           inner must be a Base query on such a child. *)
        Scope.equal inner.scope Scope.Base && Dn.parent_of outer.base inner.base
    | Scope.Base -> false

let attrs_compare a b =
  match (a, b) with
  | All, All -> 0
  | All, Select _ -> -1
  | Select _, All -> 1
  | Select x, Select y -> Stdlib.compare x y

let compare a b =
  match Dn.compare a.base b.base with
  | 0 -> (
      match Scope.compare a.scope b.scope with
      | 0 -> (
          match Filter.compare a.filter b.filter with
          | 0 -> (
              match attrs_compare a.attrs b.attrs with
              | 0 -> Bool.compare a.manage_dsa_it b.manage_dsa_it
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let equal a b = a == b || compare a b = 0

let hash t =
  let h = Hashtbl.hash (Dn.canonical t.base) in
  let h = (31 * h) + Filter.hash t.filter in
  let h = (31 * h) + Hashtbl.hash t.scope in
  let h = (31 * h) + Hashtbl.hash t.attrs in
  (31 * h) + Bool.to_int t.manage_dsa_it

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string t =
  let attrs =
    match t.attrs with All -> "*" | Select l -> String.concat "," l
  in
  Printf.sprintf "base=%S scope=%s filter=%s attrs=%s" (Dn.to_string t.base)
    (Scope.to_string t.scope)
    (Filter.to_string t.filter)
    attrs
