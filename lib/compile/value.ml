type syntax = Case_ignore | Case_exact | Integer | Telephone

(* The helpers below return their argument itself when it is already
   in the form asked for, so normalizing a normal value allocates
   nothing.  The scans are plain recursive functions: the closures of
   [String.exists] would allocate on every call. *)
let rec has_upper s i =
  i < String.length s
  && (match String.unsafe_get s i with 'A' .. 'Z' -> true | _ -> has_upper s (i + 1))

let lowercase s = if has_upper s 0 then String.lowercase_ascii s else s

let rec has_double_space s i =
  i < String.length s - 1
  && ((String.unsafe_get s i = ' ' && String.unsafe_get s (i + 1) = ' ')
     || has_double_space s (i + 1))

let needs_squash s =
  let n = String.length s in
  n > 0 && (s.[0] = ' ' || s.[n - 1] = ' ' || has_double_space s 0)

let rec has_phone_separator s i =
  i < String.length s
  && (match String.unsafe_get s i with ' ' | '-' -> true | _ -> has_phone_separator s (i + 1))

(* Squash insignificant spaces per the caseIgnore/caseExact matching
   rules: strip leading/trailing spaces, collapse internal runs. *)
let squash_spaces s =
  if not (needs_squash s) then s
  else begin
    let b = Buffer.create (String.length s) in
    let pending_space = ref false in
    String.iter
      (fun c ->
        if c = ' ' then (if Buffer.length b > 0 then pending_space := true)
        else begin
          if !pending_space then Buffer.add_char b ' ';
          pending_space := false;
          Buffer.add_char b c
        end)
      s;
    Buffer.contents b
  end

let is_phone_separator c = c = ' ' || c = '-'

let strip_phone s =
  if not (has_phone_separator s 0) then s
  else begin
    let kept = ref 0 in
    for i = 0 to String.length s - 1 do
      if not (is_phone_separator (String.unsafe_get s i)) then incr kept
    done;
    let b = Bytes.create !kept in
    let k = ref 0 in
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if not (is_phone_separator c) then begin
        Bytes.unsafe_set b !k c;
        incr k
      end
    done;
    Bytes.unsafe_to_string b
  end

let normalize syntax v =
  match syntax with
  | Case_ignore -> lowercase (squash_spaces v)
  | Case_exact -> squash_spaces v
  | Integer -> String.trim v
  | Telephone -> lowercase (strip_phone v)

let canonical syntax v =
  let n = normalize syntax v in
  match syntax with
  | Integer -> (
      (* [normalize] is not canonical for Integer ("07" and "7" are
         equal but normalize differently); fold parsable values to the
         canonical decimal spelling. *)
      match int_of_string_opt n with Some i -> string_of_int i | None -> n)
  | Case_ignore | Case_exact | Telephone -> n

let compare_integer a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> Int.compare x y
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> String.compare a b

let compare syntax a b =
  let a = normalize syntax a and b = normalize syntax b in
  match syntax with
  | Integer -> compare_integer a b
  | Case_ignore | Case_exact | Telephone -> String.compare a b

let equal syntax a b = compare syntax a b = 0

(* Find [pat] in [s] starting at [from]; return index after the match. *)
let find_from s ~from pat =
  let n = String.length s and m = String.length pat in
  if m = 0 then Some from
  else
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = pat then Some (i + m)
      else go (i + 1)
    in
    go from

let matches_substring syntax ~initial ~any ~final v =
  let v = normalize syntax v in
  let norm p = normalize syntax p in
  let pos, ok_initial =
    match initial with
    | None -> (0, true)
    | Some p ->
        let p = norm p in
        let n = String.length p in
        if String.length v >= n && String.sub v 0 n = p then (n, true)
        else (0, false)
  in
  if not ok_initial then false
  else
    let rec consume pos = function
      | [] -> Some pos
      | p :: rest -> (
          match find_from v ~from:pos (norm p) with
          | None -> None
          | Some pos' -> consume pos' rest)
    in
    match consume pos any with
    | None -> false
    | Some pos -> (
        match final with
        | None -> true
        | Some p ->
            let p = norm p in
            let n = String.length p and vn = String.length v in
            vn - pos >= n && String.sub v (vn - n) n = p)

let successor_of_prefix p =
  let n = String.length p in
  if n = 0 then invalid_arg "Value.successor_of_prefix: empty prefix";
  (* Drop trailing 0xff bytes, then increment the last byte. *)
  let rec last_incrementable i =
    if i < 0 then invalid_arg "Value.successor_of_prefix: all 0xff"
    else if Char.code p.[i] < 0xff then i
    else last_incrementable (i - 1)
  in
  let i = last_incrementable (n - 1) in
  let b = Bytes.of_string (String.sub p 0 (i + 1)) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
  Bytes.to_string b
