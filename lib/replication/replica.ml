open Ldap

type answer = Answered of Entry.t list | Referral

let filter_attrs_available ~available (q : Query.t) =
  match available with
  | Query.All -> true
  | Query.Select stored_attrs ->
      List.for_all (fun a -> List.mem a stored_attrs) (Filter.attributes (q.Query.filter :> Filter.t))

let widen_attrs (q : Query.t) =
  match q.Query.attrs with
  | Query.All -> q
  | Query.Select l ->
      Query.with_attrs q (Query.Select (l @ Filter.attributes (q.Query.filter :> Filter.t)))

let eval_over_store (q : Query.t) store =
  let attrs = Query.attr_list q.Query.attrs in
  Content_store.search store q ~init:[] ~f:(fun acc e -> Entry.select e attrs :: acc)
  |> List.rev

let eval_over_entries (_ : Schema.t) (q : Query.t) entries =
  let attrs = Query.attr_list q.Query.attrs in
  Seq.fold_left
    (fun acc e -> if Query.matches q e then Entry.select e attrs :: acc else acc)
    [] entries
  |> List.rev
