type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float digits v = Float (digits, v)
let list f xs = List (List.map f xs)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let scalar = function List _ | Obj _ -> false | _ -> true

let render ~compact v =
  let b = Buffer.create 1024 in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float (digits, x) -> Buffer.add_string b (Printf.sprintf "%.*f" digits x)
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List items -> container indent '[' ']' (List.map (fun v -> (None, v)) items)
    | Obj members -> container indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) members)
  and container indent opening closing members =
    let member (key, v) =
      Option.iter (fun k -> Buffer.add_string b (Printf.sprintf "\"%s\": " (escape k))) key;
      go (indent ^ "  ") v
    in
    Buffer.add_char b opening;
    if compact || List.for_all (fun (_, v) -> scalar v) members then
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_string b ", ";
          member m)
        members
    else begin
      List.iteri
        (fun i m ->
          Buffer.add_string b (if i > 0 then ",\n" else "\n");
          Buffer.add_string b (indent ^ "  ");
          member m)
        members;
      Buffer.add_string b ("\n" ^ indent)
    end;
    Buffer.add_char b closing
  in
  go "" v;
  Buffer.contents b

let to_string = render ~compact:false
let compact = render ~compact:true

let write path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
