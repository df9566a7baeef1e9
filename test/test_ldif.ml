(* Tests for the LDIF printer.  Its output is read back by [read], a
   small RFC 2849 reader kept here as the oracle: it unfolds
   continuation lines, splits records on blank lines and decodes
   base64 values. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let dn = Dn.of_string_exn

let b64_decode s =
  let value c =
    match c with
    | 'A' .. 'Z' -> Char.code c - 65
    | 'a' .. 'z' -> Char.code c - 71
    | '0' .. '9' -> Char.code c + 4
    | '+' -> 62
    | '/' -> 63
    | _ -> Alcotest.failf "bad base64 character %C" c
  in
  let out = Buffer.create (String.length s) in
  let acc = ref 0 and bits = ref 0 in
  String.iter
    (fun c ->
      if c <> '=' then begin
        acc := (!acc lsl 6) lor value c;
        bits := !bits + 6;
        if !bits >= 8 then begin
          bits := !bits - 8;
          Buffer.add_char out (Char.chr ((!acc lsr !bits) land 0xff))
        end
      end)
    s;
  Buffer.contents out

(* The entries an [entries_to_string] output describes, one value per
   attribute line. *)
let read text =
  let lines =
    List.fold_left
      (fun acc line ->
        match acc with
        | last :: rest when String.length line > 0 && line.[0] = ' ' ->
            (last ^ String.sub line 1 (String.length line - 1)) :: rest
        | _ -> line :: acc)
      [] (String.split_on_char '\n' text)
    |> List.rev
  in
  let pair line =
    let i = String.index line ':' in
    let name = String.sub line 0 i in
    if i + 1 < String.length line && line.[i + 1] = ':' then
      (name, b64_decode (String.sub line (i + 3) (String.length line - i - 3)))
    else (name, String.sub line (i + 2) (String.length line - i - 2))
  in
  let entry = function
    | ("dn", d) :: attrs -> Entry.make (dn d) (List.map (fun (n, v) -> (n, [ v ])) attrs)
    | _ -> Alcotest.fail "record must start with dn:"
  in
  let rec records acc current = function
    | [] -> List.rev (if current = [] then acc else entry (List.rev current) :: acc)
    | "" :: rest ->
        records (if current = [] then acc else entry (List.rev current) :: acc) [] rest
    | line :: rest -> records acc (pair line :: current) rest
  in
  match lines with
  | "version: 1" :: rest -> records [] [] rest
  | _ -> Alcotest.fail "expected a version: 1 line"

let round_trips entries =
  let back = read (Ldif.entries_to_string entries) in
  List.length back = List.length entries && List.for_all2 Entry.equal entries back

let john =
  Entry.make (dn "cn=John Doe,ou=research,o=xyz")
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ "John Doe" ]);
      ("sn", [ "Doe" ]);
      ("mail", [ "jd@xyz.com" ]);
    ]

let test_entry_round_trip () =
  check_string "printed record"
    "version: 1\n\ndn: cn=John Doe,ou=research,o=xyz\nobjectclass: inetOrgPerson\n\
     cn: John Doe\nsn: Doe\nmail: jd@xyz.com\n"
    (Ldif.entries_to_string [ john ]);
  check_bool "round trip" true (round_trips [ john ])

let test_entries_round_trip () =
  let jane =
    Entry.make (dn "cn=Jane,o=xyz")
      [ ("objectclass", [ "person" ]); ("cn", [ "Jane" ]); ("sn", [ "Doe" ]) ]
  in
  check_bool "two records" true (round_trips [ john; jane ])

let contains s frag =
  let rec find i =
    i + String.length frag <= String.length s
    && (String.sub s i (String.length frag) = frag || find (i + 1))
  in
  find 0

let test_base64_values () =
  let values =
    [ (" x", true); (":x", true); ("<x", true); ("x ", true); ("caf\xc3\xa9", true);
      ("tab\there", true); ("hello world", false) ]
  in
  List.iter
    (fun (v, encoded) ->
      let e =
        Entry.make (dn "cn=t,o=xyz")
          [ ("objectclass", [ "person" ]); ("cn", [ "t" ]); ("sn", [ "s" ]);
            ("description", [ v ]) ]
      in
      check_bool (Printf.sprintf "%S encoded" v) encoded
        (contains (Ldif.entries_to_string [ e ]) "description::");
      check_bool (Printf.sprintf "%S round trip" v) true (round_trips [ e ]))
    values

let test_long_line_folding () =
  let long = String.make 300 'x' in
  let e =
    Entry.make (dn "cn=l,o=xyz")
      [ ("objectclass", [ "person" ]); ("cn", [ "l" ]); ("sn", [ "s" ]);
        ("description", [ long ]) ]
  in
  let s = Ldif.entries_to_string [ e ] in
  check_bool "folded" true (String.split_on_char '\n' s |> List.for_all (fun l -> String.length l <= 76));
  match read s with
  | [ parsed ] -> check_string "unfolded value" long (List.hd (Entry.get parsed "description"))
  | _ -> Alcotest.fail "expected one record"

(* Property: printed entries read back equal, printable or not. *)
let entry_gen =
  QCheck.Gen.(
    let word = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
    let value = string_size ~gen:(oneof [ char_range 'a' 'z'; oneofl [ ' '; ':'; '\xe9' ] ]) (1 -- 90) in
    let attr = oneofl [ "cn"; "sn"; "mail"; "description"; "ou" ] in
    map2
      (fun name pairs ->
        Entry.make
          (Dn.child_ava (Dn.of_string_exn "o=xyz") "cn" name)
          (("objectclass", [ "person" ]) :: ("cn", [ name ])
          :: List.map (fun (a, v) -> (a, [ v ])) pairs))
      word
      (list_size (0 -- 5) (pair attr value)))

let prop_round_trip =
  QCheck.Test.make ~name:"ldif: entry round trip" ~count:300
    (QCheck.make ~print:(fun e -> Ldif.entries_to_string [ e ]) entry_gen)
    (fun e -> round_trips [ e ])

let suite =
  [
    Alcotest.test_case "entry round trip" `Quick test_entry_round_trip;
    Alcotest.test_case "entries round trip" `Quick test_entries_round_trip;
    Alcotest.test_case "base64 values" `Quick test_base64_values;
    Alcotest.test_case "long line folding" `Quick test_long_line_folding;
    QCheck_alcotest.to_alcotest prop_round_trip;
  ]
