type t = { name : string; backend : Backend.t; default_referral : string option }

let create ?default_referral ~name backend = { name; backend; default_referral }
let name t = t.name

type response =
  | Entries of Backend.search_result
  | Referral of string list
  | Failure of string

let handle_search t (q : Query.t) =
  match Backend.search t.backend q with
  | Ok r -> Entries r
  | Error (Backend.Base_referral { urls; _ }) -> Referral urls
  | Error (Backend.No_such_object dn) -> (
      match Backend.context_for t.backend dn with
      | Some _ ->
          (* The namespace is ours but the entry does not exist. *)
          Failure (Printf.sprintf "noSuchObject: %s" (Dn.to_string dn))
      | None -> (
          match t.default_referral with
          | Some url -> Referral [ url ]
          | None -> Failure (Printf.sprintf "noSuchObject: %s" (Dn.to_string dn))))
