type response =
  | Entries of Backend.search_result
  | Referral of string list
  | Failure of string

let handler ?default_referral backend (q : Query.t) =
  match Backend.search backend q with
  | Ok r -> Entries r
  | Error (Backend.Base_referral { urls; _ }) -> Referral urls
  | Error (Backend.No_such_object dn) -> (
      match Backend.context_for backend dn with
      | Some _ ->
          (* The namespace is ours but the entry does not exist. *)
          Failure (Printf.sprintf "noSuchObject: %s" (Dn.to_string dn))
      | None -> (
          match default_referral with
          | Some url -> Referral [ url ]
          | None -> Failure (Printf.sprintf "noSuchObject: %s" (Dn.to_string dn))))
