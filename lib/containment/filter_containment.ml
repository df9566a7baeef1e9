open Ldap

let has_prefix syntax ~prefix v =
  let prefix = Value.normalize syntax prefix and v = Value.normalize syntax v in
  String.length v >= String.length prefix
  && String.sub v 0 (String.length prefix) = prefix

let has_suffix syntax ~suffix v =
  let suffix = Value.normalize syntax suffix and v = Value.normalize syntax v in
  let n = String.length suffix and vn = String.length v in
  vn >= n && String.sub v (vn - n) n = suffix

(* s1 ⊆ s2 for substring assertions: every value matching s1 matches
   s2.  Sound, not complete: initial/final must extend, and s2's [any]
   components must embed in order into s1's. *)
let substring_contained syntax (s1 : Filter.substring) (s2 : Filter.substring) =
  let initial_ok =
    match (s2.initial, s1.initial) with
    | None, _ -> true
    | Some p2, Some p1 -> has_prefix syntax ~prefix:p2 p1
    | Some _, None -> false
  in
  let final_ok =
    match (s2.final, s1.final) with
    | None, _ -> true
    | Some f2, Some f1 -> has_suffix syntax ~suffix:f2 f1
    | Some _, None -> false
  in
  (* Each element of s2.any must be a substring of a distinct element
     of s1.any, in order. *)
  let contains_sub hay needle =
    let hay = Value.normalize syntax hay and needle = Value.normalize syntax needle in
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let rec embed any2 any1 =
    match (any2, any1) with
    | [], _ -> true
    | _ :: _, [] -> false
    | a2 :: rest2, a1 :: rest1 ->
        if contains_sub a1 a2 then embed rest2 rest1 else embed any2 rest1
  in
  initial_ok && final_ok && embed s2.any s1.any

let prefix_orderable = Symbolic.prefix_orderable

let pred_contained p1 p2 =
  let open Filter in
  let syntax a = Schema.syntax_of a in
  if not (String.equal (pred_attr p1) (pred_attr p2)) then false
  else
    let a = pred_attr p1 in
    let sx = syntax a in
    match (p1, p2) with
    | _, Present _ -> true
    | (Equality (_, v1) | Approx (_, v1)), (Equality (_, v2) | Approx (_, v2)) ->
        Value.equal sx v1 v2
    | (Equality (_, v1) | Approx (_, v1)), Greater_eq (_, v2) ->
        Value.compare sx v1 v2 >= 0
    | (Equality (_, v1) | Approx (_, v1)), Less_eq (_, v2) ->
        Value.compare sx v1 v2 <= 0
    | (Equality (_, v1) | Approx (_, v1)), Substrings (_, s2) ->
        Value.matches_substring sx ~initial:s2.initial ~any:s2.any ~final:s2.final v1
    | Greater_eq (_, v1), Greater_eq (_, v2) -> Value.compare sx v1 v2 >= 0
    | Less_eq (_, v1), Less_eq (_, v2) -> Value.compare sx v1 v2 <= 0
    | Substrings (_, s1), Substrings (_, s2) -> substring_contained sx s1 s2
    | Substrings (_, { initial = Some p; _ }), Greater_eq (_, v2) ->
        (* Values with prefix p are all >= p — lexical syntaxes only. *)
        prefix_orderable sx && Value.compare sx p v2 >= 0
    | Substrings (_, { initial = Some p; _ }), Less_eq (_, v2) -> (
        (* Values with prefix p are all < succ p — lexical syntaxes only. *)
        prefix_orderable sx
        &&
        match Value.successor_of_prefix (Value.normalize sx p) with
        | s -> Value.compare sx s v2 <= 0
        | exception Invalid_argument _ -> false)
    | Present _, (Equality _ | Approx _ | Greater_eq _ | Less_eq _ | Substrings _)
    | Greater_eq _, (Equality _ | Approx _ | Less_eq _ | Substrings _)
    | Less_eq _, (Equality _ | Approx _ | Greater_eq _ | Substrings _)
    | Substrings _, (Equality _ | Approx _)
    | Substrings (_, { initial = None; _ }), (Greater_eq _ | Less_eq _) ->
        false

let same_shape_contained f1 f2 =
  let f1 = Filter.normalize f1 and f2 = Filter.normalize f2 in
  (* Walk in lockstep; [dir] flips under NOT. *)
  let rec go dir a b =
    match (a, b) with
    | Filter.Pred p, Filter.Pred q ->
        Some (if dir then pred_contained p q else pred_contained q p)
    | Filter.Not x, Filter.Not y -> go (not dir) x y
    | Filter.And xs, Filter.And ys | Filter.Or xs, Filter.Or ys ->
        if List.length xs <> List.length ys then None
        else
          List.fold_left2
            (fun acc x y ->
              match acc with
              | None | Some false -> acc
              | Some true -> go dir x y)
            (Some true) xs ys
    | (Filter.Pred _ | Filter.Not _ | Filter.And _ | Filter.Or _), _ -> None
  in
  go true f1 f2

let contained_general = Symbolic.contained

let contained f1 f2 =
  if Filter.equal f1 f2 then true
  else
    match same_shape_contained f1 f2 with
    | Some true -> true
    | Some false | None -> contained_general f1 f2

(* [f ∧ g] inconsistent ⟺ [f ⊆ ¬g]: the Proposition 1 reduction run
   backwards, so disjointness rides the same decision procedure. *)
let disjoint f g = contained_general f (Filter.Not g)
