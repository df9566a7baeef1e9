open Ldap

type rule =
  | Prefix_value of { attr : string; keep : int }
  | Widen_to_presence of { attr : string }

let apply_to_pred rule (p : Filter.pred) ~in_conjunction =
  match (rule, p) with
  | Prefix_value { attr; keep }, Filter.Equality (a, v)
    when String.lowercase_ascii a = String.lowercase_ascii attr
         && String.length v > keep && keep > 0 ->
      Some
        (Filter.Substrings
           (a, { Filter.initial = Some (String.sub v 0 keep); any = []; final = None }))
  | Widen_to_presence { attr }, Filter.Equality (a, _)
    when String.lowercase_ascii a = String.lowercase_ascii attr && in_conjunction ->
      Some (Filter.Present a)
  | (Prefix_value _ | Widen_to_presence _), _ -> None

(* Apply the rule to the first applicable predicate of a normal
   filter; the result is normalized again, since a rewritten operand
   may sort elsewhere among its siblings. *)
let generalize_filter rule (filter : Filter.normal) =
  let applied = ref false in
  let rec go ~in_conjunction f =
    match f with
    | Filter.Pred p when not !applied -> (
        match apply_to_pred rule p ~in_conjunction with
        | Some p' ->
            applied := true;
            Filter.Pred p'
        | None -> f)
    | Filter.Pred _ -> f
    | Filter.Not g -> Filter.Not (go ~in_conjunction:false g)
    | Filter.And gs -> Filter.And (List.map (go ~in_conjunction:true) gs)
    | Filter.Or gs -> Filter.Or (List.map (go ~in_conjunction:false) gs)
  in
  let result = go ~in_conjunction:false (filter :> Filter.t) in
  if !applied then Some (Filter.normalize result) else None

let candidates rules (q : Query.t) =
  let gens =
    List.filter_map
      (fun rule ->
        match generalize_filter rule q.Query.filter with
        | Some f when not (Filter.equal f q.Query.filter) -> Some (Query.with_filter q f)
        | Some _ | None -> None)
      rules
  in
  (* Deduplicate structurally. *)
  let rec dedup seen = function
    | [] -> List.rev seen
    | g :: rest ->
        if List.exists (Query.equal g) seen then dedup seen rest
        else dedup (g :: seen) rest
  in
  dedup [] gens
