type t = { host : string; dn : Dn.t option }

let make ~host ?dn () =
  match dn with
  | None -> Printf.sprintf "ldap://%s/" host
  | Some dn -> Printf.sprintf "ldap://%s/%s" host (Dn.to_string dn)

let parse url =
  let prefix = "ldap://" in
  let plen = String.length prefix in
  if String.length url < plen || String.sub url 0 plen <> prefix then
    Error (Printf.sprintf "not an LDAP URL: %S" url)
  else
    let rest = String.sub url plen (String.length url - plen) in
    match String.index_opt rest '/' with
    | None -> Ok { host = rest; dn = None }
    | Some i -> (
        let host = String.sub rest 0 i in
        let dn_s = String.sub rest (i + 1) (String.length rest - i - 1) in
        if dn_s = "" then Ok { host; dn = None }
        else
          match Dn.of_string dn_s with
          | Ok dn -> Ok { host; dn = Some dn }
          | Error e -> Error e)
