open Ldap

type answer = Answered of Entry.t list | Referral

let filter_attrs_available ~available (q : Query.t) =
  match available with
  | Query.All -> true
  | Query.Select stored_attrs ->
      List.for_all (fun a -> List.mem a stored_attrs) (Filter.attributes q.Query.filter)

let widen_attrs (q : Query.t) =
  match q.Query.attrs with
  | Query.All -> q
  | Query.Select l ->
      { q with Query.attrs = Query.Select (l @ Filter.attributes q.Query.filter) }

let eval_over_store schema (q : Query.t) store =
  let attrs = Query.attr_list q.Query.attrs in
  Content_store.search store schema q ~init:[] ~f:(fun acc e -> Entry.select e attrs :: acc)
  |> List.rev

let eval_over_entries schema (q : Query.t) entries =
  (* Compile the filter once for the whole pass; each entry then
     evaluates the bytecode against its slots. *)
  let matches = Filter.matcher schema q.Query.filter in
  let attrs = Query.attr_list q.Query.attrs in
  Seq.fold_left
    (fun acc e ->
      if Query.in_scope q (Entry.dn e) && matches e then
        Entry.select e attrs :: acc
      else acc)
    [] entries
  |> List.rev
