open Ldap

let kind_of_name s =
  match String.lowercase_ascii s with
  | "serialnumber" | "serial" -> Some Workload.Serial
  | "mail" -> Some Workload.Mail
  | "department" | "dept" -> Some Workload.Dept
  | "location" -> Some Workload.Location
  | _ -> None

let item_line (item : Workload.item) =
  let q = item.Workload.query in
  Printf.sprintf "%s\t%s\t%s\t%s\t%s"
    (Workload.kind_name item.Workload.kind)
    (Scope.to_string q.Query.scope)
    (Dn.to_string q.Query.base)
    (Filter.to_string (q.Query.filter :> Filter.t))
    (Dn.to_string item.Workload.scoped.Query.base)

let to_string items =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# kind\tscope\tbase\tfilter\tscoped-base\n";
  Array.iter
    (fun item ->
      Buffer.add_string buf (item_line item);
      Buffer.add_char buf '\n')
    items;
  Buffer.contents buf

let save oc items = output_string oc (to_string items)

let parse_line lineno line =
  match String.split_on_char '\t' line with
  | [ kind_s; scope_s; base_s; filter_s; scoped_s ] -> (
      match
        ( kind_of_name kind_s,
          Scope.of_string scope_s,
          Dn.of_string base_s,
          Filter.of_string filter_s,
          Dn.of_string scoped_s )
      with
      | Some kind, Some scope, Ok base, Ok filter, Ok scoped_base ->
          Ok
            {
              Workload.kind;
              query = Query.make ~scope ~base filter;
              scoped = Query.make ~scope ~base:scoped_base filter;
            }
      | None, _, _, _, _ -> Error (Printf.sprintf "line %d: unknown kind %S" lineno kind_s)
      | _, None, _, _, _ -> Error (Printf.sprintf "line %d: bad scope %S" lineno scope_s)
      | _, _, Error e, _, _ | _, _, _, _, Error e ->
          Error (Printf.sprintf "line %d: %s" lineno e)
      | _, _, _, Error e, _ -> Error (Printf.sprintf "line %d: %s" lineno e))
  | _ -> Error (Printf.sprintf "line %d: expected 5 tab-separated fields" lineno)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
        else (
          match parse_line lineno line with
          | Error _ as e -> e
          | Ok item -> go (item :: acc) (lineno + 1) rest)
  in
  go [] 1 lines

let load ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  of_string (Buffer.contents buf)
