type substring = {
  initial : string option;
  any : string list;
  final : string option;
}

type pred =
  | Equality of string * string
  | Greater_eq of string * string
  | Less_eq of string * string
  | Present of string
  | Substrings of string * substring
  | Approx of string * string

type t = And of t list | Or of t list | Not of t | Pred of pred

let tt = Pred (Present "objectclass")

let raw_attr = function
  | Equality (a, _) | Greater_eq (a, _) | Less_eq (a, _)
  | Present a | Substrings (a, _) | Approx (a, _) ->
      a

let pred_attr p = String.lowercase_ascii (raw_attr p)

let rec fold_pred f acc = function
  | Pred p -> f acc p
  | Not g -> fold_pred f acc g
  | And gs | Or gs -> List.fold_left (fold_pred f) acc gs

let attributes t =
  fold_pred (fun acc p -> pred_attr p :: acc) [] t
  |> List.sort_uniq String.compare

(* --- Normalization ------------------------------------------------- *)

let lc_pred p =
  let lc = String.lowercase_ascii in
  match p with
  | Equality (a, v) -> Equality (lc a, v)
  | Greater_eq (a, v) -> Greater_eq (lc a, v)
  | Less_eq (a, v) -> Less_eq (lc a, v)
  | Present a -> Present (lc a)
  | Substrings (a, s) -> Substrings (lc a, s)
  | Approx (a, v) -> Approx (lc a, v)

let rec structural_compare a b =
  let rank = function And _ -> 0 | Or _ -> 1 | Not _ -> 2 | Pred _ -> 3 in
  match (a, b) with
  | And xs, And ys | Or xs, Or ys -> compare_lists xs ys
  | Not x, Not y -> structural_compare x y
  | Pred p, Pred q -> Stdlib.compare p q
  | _ -> Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> (
      match structural_compare x y with 0 -> compare_lists xs ys | c -> c)

let rec normalize t =
  match t with
  | Pred p -> Pred (lc_pred p)
  | Not g -> Not (normalize g)
  | And gs -> rebuild (fun l -> And l) (function And l -> Some l | _ -> None) gs
  | Or gs -> rebuild (fun l -> Or l) (function Or l -> Some l | _ -> None) gs

and rebuild mk same gs =
  let flattened =
    List.concat_map
      (fun g ->
        let g = normalize g in
        match same g with Some l -> l | None -> [ g ])
      gs
  in
  let sorted = List.sort_uniq structural_compare flattened in
  match sorted with [ g ] -> g | l -> mk l

(* [normalize] rebuilds a filter passing this check unchanged:
   lowercase attributes, no singleton or nested same-kind AND/OR,
   operands strictly sorted.  Filters built by [Query.make] pass it, so
   comparing and hashing them allocates nothing. *)
let rec is_normal = function
  | Pred p -> not (String.exists (fun c -> c >= 'A' && c <= 'Z') (raw_attr p))
  | Not g -> is_normal g
  | And gs -> operands_normal (function And _ -> true | _ -> false) gs
  | Or gs -> operands_normal (function Or _ -> true | _ -> false) gs

and operands_normal same gs =
  let rec sorted = function
    | x :: (y :: _ as rest) -> structural_compare x y < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  (match gs with [ _ ] -> false | _ -> true)
  && List.for_all (fun g -> (not (same g)) && is_normal g) gs
  && sorted gs

let canonical f = if is_normal f then f else normalize f
let equal a b = a == b || structural_compare (canonical a) (canonical b) = 0
let compare a b = if a == b then 0 else structural_compare (canonical a) (canonical b)

(* Every predicate, however deep, feeds the hash: [Hashtbl.hash] alone
   stops after ten meaningful values, which would put filters that
   differ only in a late operand into one bucket. *)
let hash f =
  let rec go = function
    | Pred p -> Hashtbl.hash p
    | Not g -> 3 + (31 * go g)
    | And gs -> List.fold_left (fun h g -> (31 * h) + go g) 5 gs
    | Or gs -> List.fold_left (fun h g -> (31 * h) + go g) 7 gs
  in
  go (canonical f)

(* --- Evaluation ----------------------------------------------------- *)

let pred_matches p entry =
  let syntax = Schema.syntax_of in
  match p with
  | Present a -> Entry.has_attribute entry a
  | Equality (a, v) | Approx (a, v) ->
      Entry.has_value ~syntax:(syntax a) entry a v
  | Greater_eq (a, v) ->
      List.exists (fun x -> Value.compare (syntax a) x v >= 0) (Entry.get entry a)
  | Less_eq (a, v) ->
      List.exists (fun x -> Value.compare (syntax a) x v <= 0) (Entry.get entry a)
  | Substrings (a, { initial; any; final }) ->
      List.exists
        (fun x -> Value.matches_substring (syntax a) ~initial ~any ~final x)
        (Entry.get entry a)

let rec matches t entry =
  match t with
  | Pred p -> pred_matches p entry
  | Not g -> not (matches g entry)
  | And gs -> List.for_all (fun g -> matches g entry) gs
  | Or gs -> List.exists (fun g -> matches g entry) gs

(* --- Compilation ----------------------------------------------------- *)

(* Lower a predicate to bytecode.  The attribute id is the interned
   *literal* (lowercased) name, matching [Entry.get]'s key semantics:
   filters do not resolve schema aliases against entry attributes, and
   neither may the compiled program.  The syntax lookup, by contrast,
   is alias-resolving, exactly as [pred_matches] does it. *)
let compile_pred p =
  let open Ldap_compile in
  let id a = Attr_id.intern (String.lowercase_ascii a) in
  let syntax = Schema.syntax_of in
  match p with
  | Present a -> Prog.P_present (id a)
  | Equality (a, v) | Approx (a, v) ->
      Prog.P_eq (id a, Value.canonical (syntax a) v)
  | Greater_eq (a, v) | Less_eq (a, v) -> (
      let ge = match p with Greater_eq _ -> true | _ -> false in
      match syntax a with
      | Value.Integer ->
          let c = Value.canonical Value.Integer v in
          Prog.P_cmp_int
            { i_id = id a; i_ge = ge; i_v = int_of_string_opt c; i_vs = c }
      | (Value.Case_ignore | Value.Case_exact | Value.Telephone) as s ->
          Prog.P_cmp { c_id = id a; c_ge = ge; c_v = Value.normalize s v })
  | Substrings (a, { initial; any; final }) ->
      let s = syntax a in
      let norm v = Value.normalize s v in
      Prog.P_sub
        {
          s_id = id a;
          s_initial = Option.map norm initial;
          s_any = Array.of_list (List.map norm any);
          s_final = Option.map norm final;
        }

let compile t =
  let open Ldap_compile in
  let rec go = function
    | Pred p -> compile_pred p
    | Not g -> Prog.P_not (go g)
    | And [] -> Prog.P_true
    | Or [] -> Prog.P_false
    | And gs -> Prog.P_all (Array.of_list (List.map go gs))
    | Or gs -> Prog.P_any (Array.of_list (List.map go gs))
  in
  go t

let matcher t =
  let prog = compile t in
  fun entry -> Ldap_compile.Prog.matches prog (Entry.compiled entry)

(* --- Printing ------------------------------------------------------- *)

let escape_assertion v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '*' -> Buffer.add_string b "\\2a"
      | '(' -> Buffer.add_string b "\\28"
      | ')' -> Buffer.add_string b "\\29"
      | '\\' -> Buffer.add_string b "\\5c"
      | '\000' -> Buffer.add_string b "\\00"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let substring_to_string { initial; any; final } =
  let e = escape_assertion in
  String.concat "*"
    ((match initial with Some s -> [ e s ] | None -> [ "" ])
    @ List.map e any
    @ match final with Some s -> [ e s ] | None -> [ "" ])

let pred_to_string = function
  | Equality (a, v) -> Printf.sprintf "(%s=%s)" a (escape_assertion v)
  | Greater_eq (a, v) -> Printf.sprintf "(%s>=%s)" a (escape_assertion v)
  | Less_eq (a, v) -> Printf.sprintf "(%s<=%s)" a (escape_assertion v)
  | Present a -> Printf.sprintf "(%s=*)" a
  | Substrings (a, s) -> Printf.sprintf "(%s=%s)" a (substring_to_string s)
  | Approx (a, v) -> Printf.sprintf "(%s~=%s)" a (escape_assertion v)

let rec to_string = function
  | Pred p -> pred_to_string p
  | Not g -> Printf.sprintf "(!%s)" (to_string g)
  | And gs -> Printf.sprintf "(&%s)" (String.concat "" (List.map to_string gs))
  | Or gs -> Printf.sprintf "(|%s)" (String.concat "" (List.map to_string gs))

(* --- Parsing -------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Parse_error (Printf.sprintf "expected %c, got %c at %d" ch x c.pos))
  | None -> raise (Parse_error (Printf.sprintf "expected %c, got end of input" ch))

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Some (Char.code ch - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code ch - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code ch - Char.code 'A' + 10)
  | _ -> None

(* Reads assertion-value text up to an unescaped '*' or ')'.  Returns
   the decoded text; stops before the terminator. *)
let read_value_segment c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None | Some ')' | Some '*' -> Buffer.contents b
    | Some '\\' ->
        advance c;
        (match (peek c, if c.pos + 1 < String.length c.s then Some c.s.[c.pos + 1] else None) with
        | Some h, Some l when hex_digit h <> None && hex_digit l <> None ->
            let v = (Option.get (hex_digit h) * 16) + Option.get (hex_digit l) in
            Buffer.add_char b (Char.chr v);
            advance c;
            advance c
        | Some ch, _ ->
            Buffer.add_char b ch;
            advance c
        | None, _ -> raise (Parse_error "dangling escape"));
        go ()
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ()

let read_attr c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('=' | '>' | '<' | '~' | ')' | '(') | None -> ()
    | Some _ ->
        advance c;
        go ()
  in
  go ();
  let a = String.trim (String.sub c.s start (c.pos - start)) in
  if a = "" then raise (Parse_error (Printf.sprintf "empty attribute at %d" c.pos));
  a

let parse_simple c =
  let attr = read_attr c in
  let op =
    match peek c with
    | Some '=' ->
        advance c;
        `Eq
    | Some '>' ->
        advance c;
        expect c '=';
        `Ge
    | Some '<' ->
        advance c;
        expect c '=';
        `Le
    | Some '~' ->
        advance c;
        expect c '=';
        `Approx
    | _ -> raise (Parse_error (Printf.sprintf "expected operator at %d" c.pos))
  in
  match op with
  | `Ge -> Pred (Greater_eq (attr, read_value_segment c))
  | `Le -> Pred (Less_eq (attr, read_value_segment c))
  | `Approx -> Pred (Approx (attr, read_value_segment c))
  | `Eq -> (
      (* Could be equality, presence or substring depending on '*'. *)
      let first = read_value_segment c in
      match peek c with
      | Some ')' | None -> Pred (Equality (attr, first))
      | Some '*' ->
          advance c;
          let segments = ref [] in
          let rec collect () =
            let seg = read_value_segment c in
            segments := seg :: !segments;
            match peek c with
            | Some '*' ->
                advance c;
                collect ()
            | _ -> ()
          in
          collect ();
          let rest = List.rev !segments in
          let initial = if first = "" then None else Some first in
          (* The last segment (possibly empty) is the final component. *)
          let rec split_last = function
            | [] -> ([], "")
            | [ x ] -> ([], x)
            | x :: xs ->
                let mid, last = split_last xs in
                (x :: mid, last)
          in
          let mid, last = split_last rest in
          let any = List.filter (fun s -> s <> "") mid in
          let final = if last = "" then None else Some last in
          if initial = None && any = [] && final = None then Pred (Present attr)
          else Pred (Substrings (attr, { initial; any; final }))
      | Some ch -> raise (Parse_error (Printf.sprintf "unexpected %c at %d" ch c.pos)))

let rec parse_filter c =
  expect c '(';
  let result =
    match peek c with
    | Some '&' ->
        advance c;
        And (parse_list c)
    | Some '|' ->
        advance c;
        Or (parse_list c)
    | Some '!' ->
        advance c;
        Not (parse_filter c)
    | Some _ -> parse_simple c
    | None -> raise (Parse_error "unexpected end of input")
  in
  expect c ')';
  result

and parse_list c =
  let rec go acc =
    match peek c with
    | Some '(' -> go (parse_filter c :: acc)
    | _ -> List.rev acc
  in
  let l = go [] in
  if l = [] then raise (Parse_error "empty AND/OR operand list") else l

let of_string s =
  let c = { s = String.trim s; pos = 0 } in
  match parse_filter c with
  | f ->
      if c.pos <> String.length c.s then
        Error (Printf.sprintf "invalid filter %S: trailing input at %d" s c.pos)
      else Ok f
  | exception Parse_error msg -> Error (Printf.sprintf "invalid filter %S: %s" s msg)

let of_string_exn s =
  match of_string s with
  | Ok f -> f
  | Error msg -> invalid_arg ("Filter.of_string_exn: " ^ msg)
