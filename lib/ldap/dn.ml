type ava = { attr : string; value : string }
type rdn = ava list

(* [norm] caches the canonical form so comparisons are cheap; it is
   derived deterministically from [parts].  [starts.(i)] is the offset
   in [norm] where part [i]'s canonical form begins, so a suffix of
   parts is a suffix of [norm] and ancestry tests compare in place. *)
type t = { parts : rdn list; norm : string; starts : int array }

let norm_value v = Value.lowercase (Value.normalize Value.Case_ignore v)

let norm_ava a = String.concat "=" [ a.attr; norm_value a.value ]

let sort_rdn (r : rdn) : rdn =
  List.sort
    (fun a b ->
      match String.compare a.attr b.attr with
      | 0 -> String.compare (norm_value a.value) (norm_value b.value)
      | c -> c)
    r

let norm_rdn r = String.concat "+" (List.map norm_ava r)

let make parts =
  let norms = Array.of_list (List.map norm_rdn parts) in
  let starts = Array.make (Array.length norms) 0 in
  for i = 1 to Array.length norms - 1 do
    starts.(i) <- starts.(i - 1) + String.length norms.(i - 1) + 1
  done;
  { parts; norm = String.concat "," (Array.to_list norms); starts }

let root = make []
let is_root t = t.parts = []

let of_rdns rdns =
  let check r = if r = [] then invalid_arg "Dn.of_rdns: empty RDN" in
  List.iter check rdns;
  let rdns =
    List.map
      (fun r -> sort_rdn (List.map (fun a -> { a with attr = String.lowercase_ascii a.attr }) r))
      rdns
  in
  make rdns


(* --- Parsing (RFC 2253 escaping) --------------------------------- *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Split [s] into tokens at unescaped occurrences of separators,
   resolving escapes.  Produces a list of (kind, text) where kind is
   the separator that *preceded* the token.  We instead scan once,
   emitting structure directly. *)

exception Parse_error of string

let parse_dn_string s =
  let n = String.length s in
  let buf = Buffer.create 16 in
  let cur_attr = ref None in
  let cur_rdn = ref [] in
  let acc = ref [] in
  let flush_ava () =
    match !cur_attr with
    | None ->
        if Buffer.length buf > 0 || !cur_rdn <> [] then
          raise (Parse_error "missing '=' in RDN")
    | Some a ->
        let attr = String.lowercase_ascii (String.trim a) in
        if attr = "" then raise (Parse_error "empty attribute name");
        let value = String.trim (Buffer.contents buf) in
        Buffer.clear buf;
        cur_attr := None;
        cur_rdn := { attr; value } :: !cur_rdn
  in
  let flush_rdn () =
    flush_ava ();
    match !cur_rdn with
    | [] -> raise (Parse_error "empty RDN")
    | r ->
        acc := List.rev r :: !acc;
        cur_rdn := []
  in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '\\' ->
          if i + 1 >= n then raise (Parse_error "dangling escape")
          else begin
            (match (hex_digit s.[i + 1], if i + 2 < n then hex_digit s.[i + 2] else None) with
            | Some h, Some l ->
                Buffer.add_char buf (Char.chr ((h * 16) + l));
                go (i + 3)
            | _ ->
                Buffer.add_char buf s.[i + 1];
                go (i + 2))
          end
      | ',' | ';' ->
          flush_rdn ();
          go (i + 1)
      | '+' ->
          flush_ava ();
          go (i + 1)
      | '=' when !cur_attr = None ->
          cur_attr := Some (Buffer.contents buf);
          Buffer.clear buf;
          go (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0;
  if !cur_attr = None && Buffer.length buf = 0 && !cur_rdn = [] && !acc = [] then []
  else begin
    flush_rdn ();
    List.rev !acc
  end

let of_string s =
  if String.trim s = "" then Ok root
  else
    match parse_dn_string s with
    | parts -> Ok (of_rdns parts)
    | exception Parse_error msg -> Error (Printf.sprintf "invalid DN %S: %s" s msg)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg ("Dn.of_string_exn: " ^ msg)

(* --- Printing ------------------------------------------------------ *)

let needs_escape v i =
  match v.[i] with
  | ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=' -> true
  | '#' | ' ' -> i = 0 || i = String.length v - 1
  | _ -> false

let rec escaped_length v i acc =
  if i = String.length v then acc
  else escaped_length v (i + 1) (if needs_escape v i then acc + 2 else acc + 1)

(* [String.length (to_string t)] without building it: each AVA is
   [attr=value] with the value's escapes, AVAs joined by [+], RDNs by
   [,]. *)
let rec avas_length sep acc = function
  | [] -> acc
  | a :: rest ->
      avas_length 1 (acc + sep + String.length a.attr + 1 + escaped_length a.value 0 0) rest

let rec rdns_length sep acc = function
  | [] -> acc
  | r :: rest -> rdns_length 1 (avas_length 0 (acc + sep) r) rest

(* The printers render into a string of exactly the length computed
   above, in the same layout; each returns the next write offset. *)
let blit_value b pos v =
  let pos = ref pos in
  for i = 0 to String.length v - 1 do
    if needs_escape v i then begin
      Bytes.set b !pos '\\';
      incr pos
    end;
    Bytes.set b !pos v.[i];
    incr pos
  done;
  !pos

let blit_ava b pos a =
  let n = String.length a.attr in
  Bytes.blit_string a.attr 0 b pos n;
  Bytes.set b (pos + n) '=';
  blit_value b (pos + n + 1) a.value

let rec blit_joined sep blit b pos = function
  | [] -> pos
  | [ x ] -> blit b pos x
  | x :: rest ->
      let pos = blit b pos x in
      Bytes.set b pos sep;
      blit_joined sep blit b (pos + 1) rest

let blit_avas = blit_joined '+' blit_ava
let blit_rdns = blit_joined ',' blit_avas

let render length blit x =
  let b = Bytes.create length in
  ignore (blit b 0 x);
  Bytes.unsafe_to_string b

let rdn_to_string r = render (avas_length 0 0 r) blit_avas r
let string_length t = rdns_length 0 0 t.parts
let to_string t = render (string_length t) blit_rdns t.parts

let canonical t = t.norm
let equal a b = String.equal a.norm b.norm
let compare a b = String.compare a.norm b.norm
let depth t = Array.length t.starts
let rdn t = match t.parts with [] -> None | r :: _ -> Some r

(* The parent and a child share their parts with [t], and cut or
   extend its canonical string and offsets: the same values [make]
   builds from the parts, without re-deriving every part's form. *)
let parent t =
  match t.parts with
  | [] -> None
  | [ _ ] -> Some root
  | _ :: rest ->
      let off = t.starts.(1) in
      let starts = Array.sub t.starts 1 (Array.length t.starts - 1) in
      Array.iteri (fun i s -> starts.(i) <- s - off) starts;
      Some { parts = rest; norm = String.sub t.norm off (String.length t.norm - off); starts }

let lower_attr a =
  let attr = Value.lowercase a.attr in
  if attr == a.attr then a else { a with attr }

let child t r =
  let r = sort_rdn (List.map lower_attr r) in
  if r = [] then invalid_arg "Dn.child: empty RDN";
  let head = norm_rdn r in
  if t.parts = [] then { parts = [ r ]; norm = head; starts = [| 0 |] }
  else begin
    let shift = String.length head + 1 in
    let starts = Array.make (Array.length t.starts + 1) 0 in
    Array.iteri (fun i s -> starts.(i + 1) <- s + shift) t.starts;
    { parts = r :: t.parts; norm = String.concat "," [ head; t.norm ]; starts }
  end

let child_ava t attr value = child t [ { attr; value } ]

let rdn_of_string s =
  match of_string s with
  | Error e -> Error e
  | Ok dn -> (
      match dn.parts with
      | [ r ] -> Ok r
      | _ -> Error (Printf.sprintf "not a single RDN: %S" s))

let ancestor_of ?(strict = false) a b =
  let da = depth a and db = depth b in
  if da > db || (strict && da = db) then false
  else
    (* a's parts must equal the last da parts of b: [a.norm] is the
       suffix of [b.norm] from b's part [db - da] on, split at the same
       part boundaries. *)
    let off = if da = 0 then String.length b.norm else b.starts.(db - da) in
    let len = String.length a.norm in
    let rec same_chars i = i = len || (a.norm.[i] = b.norm.[off + i] && same_chars (i + 1)) in
    let rec same_starts i =
      i = da || (b.starts.(db - da + i) - off = a.starts.(i) && same_starts (i + 1))
    in
    String.length b.norm - off = len && same_chars 0 && same_starts 0

let parent_of a b = depth b = depth a + 1 && ancestor_of ~strict:true a b

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
