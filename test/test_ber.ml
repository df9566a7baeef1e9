(* Tests for the BER/DER wire codec: hand-checked encodings, error
   handling, and encode/decode round-trip properties. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

(* [Entry.edit] with one add item: adds never fail. *)
let add_values e attr values =
  Result.get_ok (Entry.edit e [ { Entry.mod_kind = Add_values; mod_attr = attr; mod_values = values } ])

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.of_seq (String.to_seq s)))

let test_known_encoding () =
  (* A minimal search request has a deterministic DER image; check a
     few structural bytes rather than the whole blob. *)
  let q = Query.make ~scope:Scope.Base ~base:(dn "o=x") (f "(cn=a)") in
  let bytes = Ber_codec.encode (Ber_codec.search_request ~id:2 q) in
  check_bool "outer sequence" true (Char.code bytes.[0] = 0x30);
  (* message id = 2 encoded as 02 01 02 right after the header. *)
  check_bool "message id" true
    (String.length bytes > 5 && String.sub (hex bytes) 4 6 = "020102");
  (* SearchRequest application tag 0x63. *)
  check_bool "application tag" true (String.contains bytes '\x63')

let test_round_trip_search () =
  let q =
    Query.make ~scope:Scope.One ~attrs:(Query.Select [ "cn"; "mail" ])
      ~base:(dn "ou=research,o=xyz")
      (f "(&(objectclass=inetOrgPerson)(|(sn=doe)(sn=smi*))(age>=30)(!(uid=x)))")
  in
  let m = Ber_codec.search_request ~id:7 q in
  match Ber_codec.decode (Ber_codec.encode m) with
  | Ok { Ber_codec.id = 7; op = Ber_codec.Search_request q'; controls = [] } ->
      check_bool "query preserved" true (Query.equal q q')
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_round_trip_entry () =
  let e =
    Entry.make (dn "cn=John Doe,o=xyz")
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ "John Doe" ]);
        ("sn", [ "Doe" ]);
        ("mail", [ "a@x"; "b@x" ]);
      ]
  in
  match Ber_codec.decode (Ber_codec.encode (Ber_codec.entry_message ~id:3 e)) with
  | Ok { Ber_codec.op = Ber_codec.Search_result_entry e'; _ } ->
      check_bool "entry preserved" true (Entry.equal e e')
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_round_trip_done_and_reference () =
  let d =
    {
      Ber_codec.code = 10;
      matched = dn "o=xyz";
      diagnostic = "referral";
      referral = [ "ldap://hostA/" ];
    }
  in
  (match
     Ber_codec.decode
       (Ber_codec.encode { Ber_codec.id = 4; op = Ber_codec.Search_result_done d; controls = [] })
   with
  | Ok { Ber_codec.op = Ber_codec.Search_result_done d'; _ } ->
      check_int "code" 10 d'.Ber_codec.code;
      check_bool "referral" true (d'.Ber_codec.referral = [ "ldap://hostA/" ])
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  match
    Ber_codec.decode
      (Ber_codec.encode
         { Ber_codec.id = 5;
           op = Ber_codec.Search_result_reference [ "ldap://hostB/ou=r,o=x" ];
           controls = [] })
  with
  | Ok { Ber_codec.op = Ber_codec.Search_result_reference [ url ]; _ } ->
      check_bool "url" true (url = "ldap://hostB/ou=r,o=x")
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_manage_dsa_it_control () =
  let q = Query.make ~manage_dsa_it:true ~base:(dn "o=x") (f "(cn=a)") in
  match Ber_codec.decode (Ber_codec.encode (Ber_codec.search_request q)) with
  | Ok { Ber_codec.controls = [ c ]; _ } ->
      check_bool "oid" true (c.Ber_codec.control_type = Ber_codec.manage_dsa_it_oid);
      check_bool "critical" true c.Ber_codec.criticality
  | Ok _ -> Alcotest.fail "expected one control"
  | Error e -> Alcotest.fail e

let test_resync_control () =
  let c = Ber_codec.resync_control ~mode:"poll" ~cookie:(Some "rs:1:5") in
  (match Ber_codec.decode_resync_control c with
  | Ok ("poll", Some "rs:1:5") -> ()
  | Ok (m, _) -> Alcotest.failf "wrong mode %s" m
  | Error e -> Alcotest.fail e);
  let c = Ber_codec.resync_control ~mode:"persist" ~cookie:None in
  (match Ber_codec.decode_resync_control c with
  | Ok ("persist", None) -> ()
  | _ -> Alcotest.fail "persist/no-cookie failed");
  (* Survives a full message trip as an attached control. *)
  let q = Query.make ~base:(dn "o=x") (f "(cn=a)") in
  let m =
    { Ber_codec.id = 9; op = Ber_codec.Search_request q;
      controls = [ Ber_codec.resync_control ~mode:"sync_end" ~cookie:(Some "rs:2:9") ] }
  in
  match Ber_codec.decode (Ber_codec.encode m) with
  | Ok { Ber_codec.controls = [ c ]; _ } -> (
      match Ber_codec.decode_resync_control c with
      | Ok ("sync_end", Some "rs:2:9") -> ()
      | _ -> Alcotest.fail "resync control lost in transit")
  | Ok _ -> Alcotest.fail "expected one control"
  | Error e -> Alcotest.fail e

let test_malformed () =
  check_bool "empty" true (Result.is_error (Ber_codec.decode ""));
  check_bool "garbage" true (Result.is_error (Ber_codec.decode "\x30\x03\x02\x01"));
  check_bool "trailing" true
    (let q = Query.make ~base:(dn "o=x") (f "(cn=a)") in
     Result.is_error (Ber_codec.decode (Ber_codec.encode (Ber_codec.search_request q) ^ "x")))

let test_long_lengths () =
  (* An entry bigger than 127 bytes exercises multi-byte lengths. *)
  let e =
    Entry.make (dn "cn=big,o=xyz")
      [ ("objectclass", [ "person" ]); ("cn", [ "big" ]); ("sn", [ "b" ]);
        ("description", [ String.make 5000 'd' ]) ]
  in
  match Ber_codec.decode (Ber_codec.encode (Ber_codec.entry_message e)) with
  | Ok { Ber_codec.op = Ber_codec.Search_result_entry e'; _ } ->
      check_bool "big entry" true (Entry.equal e e')
  | _ -> Alcotest.fail "long length failed"

let test_size_model_sanity () =
  (* The Ber size model should be within a small factor of the real
     wire image for typical entries. *)
  let e =
    Entry.make (dn "cn=John Doe,c=aa,o=xyz")
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ "John Doe" ]); ("sn", [ "Doe" ]);
        ("serialNumber", [ "0400456" ]);
        ("mail", [ "jd@aa.xyz.com" ]);
      ]
  in
  let model = Ber.entry_size e in
  let real = Ber_codec.encoded_size (Ber_codec.entry_message e) in
  check_bool "same order of magnitude" true
    (float_of_int model /. float_of_int real < 2.0
    && float_of_int real /. float_of_int model < 2.0)

(* Round-trip property over random filters. *)
let filter_gen =
  let open QCheck.Gen in
  let attr = oneofl [ "cn"; "sn"; "mail"; "age" ] in
  let value = string_size ~gen:(char_range 'a' 'z') (1 -- 6) in
  let pred =
    oneof
      [
        map2 (fun a v -> Filter.Equality (a, v)) attr value;
        map2 (fun a v -> Filter.Greater_eq (a, v)) attr value;
        map2 (fun a v -> Filter.Less_eq (a, v)) attr value;
        map2 (fun a v -> Filter.Approx (a, v)) attr value;
        map (fun a -> Filter.Present a) attr;
        map2
          (fun a (i, f) ->
            Filter.Substrings (a, { Filter.initial = i; any = []; final = f }))
          attr
          (oneof
             [
               map (fun v -> (Some v, None)) value;
               map (fun v -> (None, Some v)) value;
               map2 (fun a b -> (Some a, Some b)) value value;
             ]);
      ]
  in
  let rec tree depth =
    if depth = 0 then map (fun p -> Filter.Pred p) pred
    else
      frequency
        [
          (3, map (fun p -> Filter.Pred p) pred);
          (1, map (fun g -> Filter.Not g) (tree (depth - 1)));
          (1, map (fun gs -> Filter.And gs) (list_size (1 -- 3) (tree (depth - 1))));
          (1, map (fun gs -> Filter.Or gs) (list_size (1 -- 3) (tree (depth - 1))));
        ]
  in
  tree 2

let prop_search_round_trip =
  QCheck.Test.make ~name:"ber: search request round trip" ~count:500
    (QCheck.make ~print:Filter.to_string filter_gen) (fun filter ->
      let q = Query.make ~base:(dn "ou=a,o=x") filter in
      match Ber_codec.decode (Ber_codec.encode (Ber_codec.search_request q)) with
      | Ok { Ber_codec.op = Ber_codec.Search_request q'; _ } -> Query.equal q q'
      | _ -> false)

(* --- Size model against the string-building definition --------------

   The sizes used to be computed by rendering the DN and listing the
   attributes; that code is kept here as the oracle the allocation-free
   [Ber.entry_size]/[dn_size] and [Dn.string_length] must match. *)

module Oracle = struct
  let element n = n + 2
  let dn_size dn = element (String.length (Dn.to_string dn))

  let attrs_size attrs =
    List.fold_left
      (fun acc (name, values) ->
        let values_size =
          List.fold_left (fun a v -> a + element (String.length v)) 0 values
        in
        acc + element (element (String.length name) + element values_size))
      0 attrs

  let entry_size e =
    Ber.message_overhead + dn_size (Entry.dn e) + element (attrs_size (Entry.attributes e))

  let reply_bytes (r : Ldap_resync.Protocol.reply) =
    Ber.message_overhead
    + List.fold_left (fun acc a -> acc + Ldap_resync.Action.bytes_cost a) 0 r.actions
    + match r.cookie with Some c -> String.length c | None -> 0
end

(* RDN values built from characters RFC 2253 escapes anywhere, and from
   the two it escapes only at the ends, so leading '#', leading and
   trailing spaces all come up. *)
let rdn_value =
  let open QCheck.Gen in
  string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ','; '+'; '"'; '\\'; '<'; '>'; ';'; '='; '#'; ' ' ]) (1 -- 6)

(* The RDNs of a DN, leaf-most first. *)
let rec rdns dn =
  match (Dn.rdn dn, Dn.parent dn) with Some r, Some p -> r :: rdns p | _ -> []

let dn_gen =
  let open QCheck.Gen in
  let ava = map2 (fun attr value -> { Dn.attr; value }) (oneofl [ "cn"; "ou"; "uid"; "O" ]) rdn_value in
  map (List.fold_left Dn.child Dn.root) (list_size (0 -- 4) (list_size (1 -- 3) ava))

(* Entries with repeated attribute names, empty value lists, and value
   edits after construction — including delete-then-add, which lists the
   attribute once, as a fresh entry would. *)
let entry_gen =
  let open QCheck.Gen in
  let name = oneofl [ "cn"; "mail"; "objectClass"; "sn"; "description" ] in
  let value = string_size ~gen:printable (0 -- 8) in
  let edit =
    oneof
      [
        map2 (fun n vs e -> add_values e n vs) name (list_size (0 -- 3) value);
        map (fun n e -> match Entry.delete_values e n [] with Ok e -> e | Error _ -> e) name;
        map2 (fun n vs e -> Entry.replace_values e n vs) name (list_size (0 -- 3) value);
      ]
  in
  map3
    (fun dn attrs edits -> List.fold_left (fun e f -> f e) (Entry.make dn attrs) edits)
    dn_gen
    (list_size (0 -- 5) (pair name (list_size (0 -- 3) value)))
    (list_size (0 -- 4) edit)

let prop_sizes_match_oracle =
  QCheck.Test.make ~name:"ber: sizes = string-building sizes" ~count:500
    (QCheck.make QCheck.Gen.(pair entry_gen (list_size (0 -- 3) entry_gen)))
    (fun (e, more) ->
      let dns = Dn.root :: Entry.dn e :: List.map Entry.dn more in
      let reply =
        Ldap_resync.Protocol.reply ~kind:Ldap_resync.Protocol.Incremental
          ~actions:
            (Ldap_resync.Action.Delete (Entry.dn e)
            :: List.map (fun e -> Ldap_resync.Action.Modify e) (e :: more))
          ~cookie:(Some "rs:1:2")
      in
      List.for_all
        (fun dn ->
          Dn.string_length dn = String.length (Dn.to_string dn)
          && Ber.dn_size dn = Oracle.dn_size dn)
        dns
      && List.for_all (fun e -> Ber.entry_size e = Oracle.entry_size e) (e :: more)
      && Ldap_resync.Protocol.reply_bytes reply = Oracle.reply_bytes reply
      && Ldap_resync.Protocol.actions_count reply = List.length reply.actions)

(* The DN printer and the entry encoder as they were before they
   stopped allocating: [Printf] per AVA with a [Buffer]-built escape,
   and an entry image assembled from [Entry.attributes] with every
   nested TLV materialized as its own string.  Kept as the oracle the
   in-place printer and the reversed-fold encoder must match byte for
   byte — LDIF, the wire, WAL records and tombstones all use them. *)
module Print_oracle = struct
  let needs_escape v i =
    match v.[i] with
    | ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=' -> true
    | '#' | ' ' -> i = 0 || i = String.length v - 1
    | _ -> false

  let escape_value v =
    let b = Buffer.create (String.length v) in
    String.iteri
      (fun i c ->
        if needs_escape v i then Buffer.add_char b '\\';
        Buffer.add_char b c)
      v;
    Buffer.contents b

  let ava_to_string (a : Dn.ava) = Printf.sprintf "%s=%s" a.attr (escape_value a.value)
  let rdn_to_string r = String.concat "+" (List.map ava_to_string r)
  let dn_to_string dn = String.concat "," (List.map rdn_to_string (rdns dn))

  let length n =
    if n < 0x80 then String.make 1 (Char.chr n)
    else
      let rec bytes acc n =
        if n = 0 then acc else bytes (String.make 1 (Char.chr (n land 0xff)) ^ acc) (n lsr 8)
      in
      let bs = bytes "" n in
      String.make 1 (Char.chr (0x80 lor String.length bs)) ^ bs

  let tlv tag body = String.make 1 (Char.chr tag) ^ length (String.length body) ^ body

  let entry e =
    let attr (name, values) =
      tlv 0x30 (tlv 0x04 name ^ tlv 0x31 (String.concat "" (List.map (tlv 0x04) values)))
    in
    tlv 0x64
      (tlv 0x04 (dn_to_string (Entry.dn e))
      ^ tlv 0x30 (String.concat "" (List.map attr (Entry.attributes e))))
end

let prop_printers_match_oracle =
  QCheck.Test.make ~name:"ber: dn printer and entry encoder = list-based oracles"
    ~count:500
    (QCheck.make QCheck.Gen.(pair entry_gen (list_size (0 -- 3) entry_gen)))
    (fun (e, more) ->
      let entries = e :: more in
      let dns = Dn.root :: List.map Entry.dn entries in
      List.for_all
        (fun dn ->
          Dn.to_string dn = Print_oracle.dn_to_string dn
          && List.for_all
               (fun r -> Dn.rdn_to_string r = Print_oracle.rdn_to_string r)
               (rdns dn))
        dns
      && List.for_all (fun e -> Ber_codec.Der.entry e = Print_oracle.entry e) entries)

let test_printers_fixed_cases () =
  let check_dn s =
    let d = dn s in
    Alcotest.(check string) s (Print_oracle.dn_to_string d) (Dn.to_string d)
  in
  List.iter check_dn
    [ ""; "cn=a\\,b\\+c,o=x"; "cn=\\#lead,o=x"; "cn=\\ pad\\ ,o=x"; "cn=X+sn=Y,ou=a\\;b,o=x";
      "cn=q\\\"uote\\<\\>\\=,o=x"; "cn=back\\\\slash,o=x" ];
  (* Delete-then-add lists the attribute once in [Entry.attributes]. *)
  let e = Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("mail", [ "m@x" ]); ("sn", [ "s" ]) ] in
  let e = match Entry.delete_values e "mail" [] with Ok e -> e | Error m -> failwith m in
  let e = add_values e "mail" [ "n@x"; "o@x" ] in
  check_bool "delete-then-add entry image" true
    (Ber_codec.Der.entry e = Print_oracle.entry e)

let suite =
  [
    Alcotest.test_case "known encoding" `Quick test_known_encoding;
    Alcotest.test_case "round trip search" `Quick test_round_trip_search;
    Alcotest.test_case "round trip entry" `Quick test_round_trip_entry;
    Alcotest.test_case "round trip done/reference" `Quick test_round_trip_done_and_reference;
    Alcotest.test_case "manageDsaIT control" `Quick test_manage_dsa_it_control;
    Alcotest.test_case "resync control" `Quick test_resync_control;
    Alcotest.test_case "malformed" `Quick test_malformed;
    Alcotest.test_case "long lengths" `Quick test_long_lengths;
    Alcotest.test_case "size model sanity" `Quick test_size_model_sanity;
    QCheck_alcotest.to_alcotest prop_search_round_trip;
    QCheck_alcotest.to_alcotest prop_sizes_match_oracle;
    QCheck_alcotest.to_alcotest prop_printers_match_oracle;
    Alcotest.test_case "printers: escapes and repeated attributes" `Quick
      test_printers_fixed_cases;
  ]
