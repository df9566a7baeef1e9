open Ldap

type stats = { mutable observed : int; mutable admitted : int }

(* [key] is the template's shape id. *)
type entry = { template : Template.t; key : int; stats : stats }

type t = {
  mutable entries : entry list;  (* declared order *)
  mutable unclassified : int;
}

let create () = { entries = []; unclassified = 0 }

let declared t key = List.find_opt (fun e -> e.key = key) t.entries

let declare t template =
  let key = Template.shape_key template in
  if declared t key = None then
    t.entries <- t.entries @ [ { template; key; stats = { observed = 0; admitted = 0 } } ]

let declare_strings t specs =
  List.fold_left
    (fun acc spec ->
      match acc with
      | Error _ as e -> e
      | Ok () -> (
          match Template.of_string spec with
          | Error _ as e -> e
          | Ok template ->
              declare t template;
              Ok ()))
    (Ok ()) specs

let templates t = List.map (fun e -> e.template) t.entries

let find t (q : Query.t) =
  List.find_opt
    (fun e -> Template.match_filter e.template q.Query.filter <> None)
    t.entries

let classify t q =
  match find t q with
  | Some e ->
      e.stats.observed <- e.stats.observed + 1;
      Some e.template
  | None ->
      t.unclassified <- t.unclassified + 1;
      None

let admit t q =
  match find t q with
  | Some e ->
      e.stats.observed <- e.stats.observed + 1;
      e.stats.admitted <- e.stats.admitted + 1;
      true
  | None ->
      t.unclassified <- t.unclassified + 1;
      false

let unclassified t = t.unclassified

let stats_of t template =
  Option.map (fun e -> e.stats) (declared t (Template.shape_key template))

let report t = List.map (fun e -> (Template.to_string e.template, e.stats)) t.entries
