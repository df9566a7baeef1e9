type key = { attr : string; reverse : bool }

let key ?(reverse = false) attr = { attr = String.lowercase_ascii attr; reverse }

let compare_by k a b =
  let syntax = Schema.syntax_of k.attr in
  let value e = match Entry.get e k.attr with [] -> None | v :: _ -> Some v in
  let c =
    match (value a, value b) with
    | None, None -> 0
    | None, Some _ -> 1 (* missing sorts last *)
    | Some _, None -> -1
    | Some va, Some vb -> Value.compare syntax va vb
  in
  if k.reverse then -c else c

let sort ~keys entries =
  let compare_entries a b =
    let rec go = function
      | [] -> 0
      | k :: rest -> ( match compare_by k a b with 0 -> go rest | c -> c)
    in
    go keys
  in
  List.stable_sort compare_entries entries

let keys_of_string s =
  let parts = String.split_on_char ',' s |> List.map String.trim in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: _ -> Error "empty sort key"
    | part :: rest ->
        if part.[0] = '-' then
          let attr = String.sub part 1 (String.length part - 1) in
          if attr = "" then Error "empty sort key"
          else go (key ~reverse:true attr :: acc) rest
        else go (key part :: acc) rest
  in
  go [] parts
