(* --- Base64 encoding (self-contained; no external dependency) --------- *)

let b64_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_encode s =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let byte i = Char.code s.[i] in
  let rec go i =
    if i + 3 <= n then begin
      let v = (byte i lsl 16) lor (byte (i + 1) lsl 8) lor byte (i + 2) in
      Buffer.add_char out b64_alphabet.[(v lsr 18) land 63];
      Buffer.add_char out b64_alphabet.[(v lsr 12) land 63];
      Buffer.add_char out b64_alphabet.[(v lsr 6) land 63];
      Buffer.add_char out b64_alphabet.[v land 63];
      go (i + 3)
    end
    else if i + 2 = n then begin
      let v = (byte i lsl 16) lor (byte (i + 1) lsl 8) in
      Buffer.add_char out b64_alphabet.[(v lsr 18) land 63];
      Buffer.add_char out b64_alphabet.[(v lsr 12) land 63];
      Buffer.add_char out b64_alphabet.[(v lsr 6) land 63];
      Buffer.add_char out '='
    end
    else if i + 1 = n then begin
      let v = byte i lsl 16 in
      Buffer.add_char out b64_alphabet.[(v lsr 18) land 63];
      Buffer.add_char out b64_alphabet.[(v lsr 12) land 63];
      Buffer.add_string out "=="
    end
  in
  go 0;
  Buffer.contents out

(* --- Printing ---------------------------------------------------------- *)

let needs_base64 v =
  v <> ""
  && ((match v.[0] with ' ' | ':' | '<' -> true | _ -> false)
     || v.[String.length v - 1] = ' '
     || String.exists (fun c -> Char.code c < 32 || Char.code c > 126) v)

let fold_width = 76

let add_attr_line buf name v =
  let line =
    if needs_base64 v then Printf.sprintf "%s:: %s" name (b64_encode v)
    else Printf.sprintf "%s: %s" name v
  in
  (* RFC 2849 line folding: continuation lines start with one space. *)
  let n = String.length line in
  if n <= fold_width then begin
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  end
  else begin
    Buffer.add_string buf (String.sub line 0 fold_width);
    Buffer.add_char buf '\n';
    let rec rest i =
      if i < n then begin
        let len = min (fold_width - 1) (n - i) in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (String.sub line i len);
        Buffer.add_char buf '\n';
        rest (i + len)
      end
    in
    rest fold_width
  end

let entry_to_buf buf e =
  add_attr_line buf "dn" (Dn.to_string (Entry.dn e));
  List.iter
    (fun (name, values) -> List.iter (fun v -> add_attr_line buf name v) values)
    (Entry.attributes e)

let entries_to_string entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "version: 1\n\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf '\n';
      entry_to_buf buf e)
    entries;
  Buffer.contents buf
