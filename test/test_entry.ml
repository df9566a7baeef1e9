(* Tests for Ldap.Entry and Ldap.Schema. *)
open Ldap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn

(* [Entry.edit] with one add item: adds never fail. *)
let add_values e attr values =
  Result.get_ok (Entry.edit e [ { Entry.mod_kind = Add_values; mod_attr = attr; mod_values = values } ])

let john =
  Entry.make (dn "cn=John,o=xyz")
    [
      ("objectClass", [ "inetOrgPerson" ]);
      ("CN", [ "John"; "Johnny" ]);
      ("sn", [ "Doe" ]);
      ("mail", [ "j@x.com" ]);
    ]

let test_attribute_access () =
  check_bool "case-insensitive get" true (Entry.get john "cn" = [ "John"; "Johnny" ]);
  check_bool "case-insensitive name" true (Entry.get john "Cn" = [ "John"; "Johnny" ]);
  check_bool "absent" true (Entry.get john "uid" = []);
  check_bool "has_attribute" true (Entry.has_attribute john "MAIL");
  check_bool "has_value rule" true (Entry.has_value john "sn" "doe");
  check_bool "objectclasses" true (Entry.get john "objectClass" = [ "inetOrgPerson" ])

let test_merge_and_dedup () =
  let e =
    Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("CN", [ "b"; "a" ]); ("sn", [ "s" ]) ]
  in
  check_int "merged values" 2 (List.length (Entry.get e "cn"))

let test_modifications () =
  let e = add_values john "mail" [ "j2@x.com" ] in
  check_int "added" 2 (List.length (Entry.get e "mail"));
  let e = add_values e "mail" [ "J@X.COM" ] in
  check_int "duplicate under rule skipped" 2 (List.length (Entry.get e "mail"));
  (match Entry.delete_values e "mail" [ "j@x.com" ] with
  | Ok e' -> check_int "deleted one" 1 (List.length (Entry.get e' "mail"))
  | Error m -> Alcotest.fail m);
  check_bool "delete absent value errors" true
    (Result.is_error (Entry.delete_values e "mail" [ "nope@x.com" ]));
  check_bool "delete absent attr errors" true
    (Result.is_error (Entry.delete_values e "uid" []));
  (match Entry.delete_values e "mail" [] with
  | Ok e' -> check_bool "delete all" false (Entry.has_attribute e' "mail")
  | Error m -> Alcotest.fail m);
  let e = Entry.replace_values john "sn" [ "Smith" ] in
  check_bool "replaced" true (Entry.has_value e "sn" "smith");
  let e = Entry.replace_values john "sn" [] in
  check_bool "replace empty removes" false (Entry.has_attribute e "sn")

let test_select () =
  let all = Entry.select john None in
  check_bool "none keeps all" true (Entry.has_attribute all "mail");
  let some = Entry.select john (Some [ "cn"; "sn" ]) in
  check_bool "kept" true (Entry.has_attribute some "cn");
  check_bool "dropped" false (Entry.has_attribute some "mail");
  let star = Entry.select john (Some [ "*" ]) in
  check_bool "star keeps all" true (Entry.has_attribute star "mail")

let test_equal () =
  let a = Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("sn", [ "x"; "y" ]) ] in
  let b = Entry.make (dn "cn=a,o=x") [ ("sn", [ "y"; "x" ]); ("cn", [ "a" ]) ] in
  check_bool "order-insensitive equal" true (Entry.equal a b);
  let c = Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]) ] in
  check_bool "different attrs" false (Entry.equal a c);
  let respelled = Entry.make (dn "CN=a, O=x") [ ("sn", [ "y"; "x" ]); ("cn", [ "a" ]) ] in
  check_bool "respelled DN equal" true (Entry.equal a respelled);
  check_bool "respelled DN, same digest" true
    (Int64.equal (Entry.content_hash64 a) (Entry.content_hash64 respelled));
  let back = Entry.replace_values (Entry.replace_values a "sn" [ "z" ]) "sn" [ "y"; "x" ] in
  check_bool "modified back: another record, equal" true (back != a && Entry.equal a back)

let test_referral () =
  let r =
    Entry.make (dn "ou=r,o=x")
      [ ("objectclass", [ "referral" ]); ("ref", [ "ldap://hostB/ou=r,o=x" ]) ]
  in
  check_bool "is_referral" true (Entry.is_referral r);
  check_int "urls" 1 (List.length (Entry.referral_urls r));
  check_bool "person is not" false (Entry.is_referral john)

(* Schema -------------------------------------------------------------- *)

let test_schema_lookup () =
  check_bool "alias" true
    (Schema.canonical_attr "surname" = "sn");
  check_bool "syntax" true (Schema.syntax_of "age" = Value.Integer);
  check_bool "unknown defaults" true (Schema.syntax_of "frobnicate" = Value.Case_ignore);
  check_bool "single valued" true (Schema.is_single_valued "serialNumber");
  check_bool "multi valued" false (Schema.is_single_valued "cn")

let test_ber_sizes () =
  check_bool "entry size positive" true (Ber.entry_size john > 0);
  check_bool "selection shrinks" true
    (Ber.entry_size (Entry.select john (Some [ "cn" ])) < Ber.entry_size john);
  check_bool "dn size grows" true
    (Ber.dn_size (dn "cn=a,ou=long-name,o=xyz") > Ber.dn_size (dn "o=xyz"))

(* --- Mutated slots = rebuilt slots ----------------------------------------
   A mutator rebuilds one slot and shares the rest; the result must equal
   the entry made from scratch with the same attributes. *)

type value_op = Add_v | Replace_v | Delete_v

(* Attributes of every syntax, values with case and spacing variants so
   matching-rule canonicalization matters. *)
let op_gen =
  let open QCheck.Gen in
  triple
    (oneofl [ Add_v; Replace_v; Delete_v ])
    (oneofl [ "cn"; "age"; "telephoneNumber"; "ref"; "mail"; "objectClass" ])
    (list_size (0 -- 3) (oneofl [ "a"; "A"; "b  c"; "B C"; "07"; "7"; "+1 555"; "x" ]))

let op_name = function Add_v -> "add" | Replace_v -> "replace" | Delete_v -> "delete"

let apply_value_op e (op, attr, values) =
  match op with
  | Add_v -> add_values e attr values
  | Replace_v -> Entry.replace_values e attr values
  | Delete_v -> (
      match Entry.delete_values e attr values with Ok e' -> e' | Error _ -> e)

let prop_derived_view_equals_rebuilt =
  QCheck.Test.make ~name:"entry: derived compiled view = rebuilt view" ~count:500
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (op, a, vs) -> Printf.sprintf "%s %s [%s]" (op_name op) a (String.concat "," vs))
              ops))
       QCheck.Gen.(list_size (1 -- 8) op_gen))
    (fun ops ->
      ignore (Entry.compiled john);
      let final = List.fold_left apply_value_op john ops in
      let rebuilt = Entry.make (Entry.dn final) (Entry.attributes final) in
      Entry.compiled final = Entry.compiled rebuilt
      && Int64.equal (Entry.content_hash64 final) (Entry.content_hash64 rebuilt))

(* --- Equality is the digest's equivalence class -----------------------
   Entries over a small alphabet, so equal and unequal pairs both come
   up often: the DN spelt several ways, multi-valued attributes listed
   in varying orders, and every mutator and a DER round trip applied
   on top. *)

let dn_spellings = [| "cn=a,o=x"; "CN=a, O=x"; "cn=a,o=x "; "cn=b,o=x"; "cn=a,ou=y,o=x" |]
let attr_names = [ "cn"; "mail"; "objectClass"; "description"; "age" ]
let value_pool = [ "a"; "b"; "c"; "A"; "07"; "7" ]

let spec_gen =
  let open QCheck.Gen in
  pair (0 -- (Array.length dn_spellings - 1))
    (list_size (0 -- 4) (pair (oneofl attr_names) (list_size (1 -- 3) (oneofl value_pool))))

type mutation =
  | M_values of value_op * string * string list
  | M_dn of int
  | M_select of string list
  | M_decode

let mutation_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map3
          (fun op a vs -> M_values (op, a, vs))
          (oneofl [ Add_v; Replace_v; Delete_v ])
          (oneofl attr_names)
          (list_size (0 -- 3) (oneofl value_pool)) );
      (1, map (fun i -> M_dn i) (0 -- (Array.length dn_spellings - 1)));
      (1, map (fun l -> M_select l) (list_size (0 -- 3) (oneofl ("*" :: attr_names))));
      (1, return M_decode);
    ]

let mutation_name = function
  | M_values (op, a, vs) -> Printf.sprintf "%s %s [%s]" (op_name op) a (String.concat "," vs)
  | M_dn i -> "dn " ^ dn_spellings.(i)
  | M_select l -> Printf.sprintf "select [%s]" (String.concat "," l)
  | M_decode -> "der decode"

let mutate e = function
  | M_values (op, a, vs) -> apply_value_op e (op, a, vs)
  | M_dn i -> Result.get_ok (Entry.edit ~dn:(dn dn_spellings.(i)) e [])
  | M_select l -> Entry.select e (Some l)
  | M_decode -> Ber_codec.Der.read_entry (Ber_codec.Der.cursor (Ber_codec.Der.entry e))

let make_spec (d, attrs) = Entry.make (dn dn_spellings.(d)) attrs

(* The same content respelled: attributes and values listed in another
   order under another spelling of the DN. *)
let respelled_gen (d, attrs) =
  let open QCheck.Gen in
  let same_dn i = Dn.equal (dn dn_spellings.(i)) (dn dn_spellings.(d)) in
  oneofl (List.filter same_dn (List.init (Array.length dn_spellings) Fun.id)) >>= fun d' ->
  flatten_l (List.map (fun (a, vs) -> map (fun vs -> (a, vs)) (shuffle_l vs)) attrs) >>= fun attrs ->
  map (fun attrs -> (d', attrs)) (shuffle_l attrs)

let pair_gen =
  let open QCheck.Gen in
  spec_gen >>= fun spec ->
  oneof [ respelled_gen spec; spec_gen ] >>= fun other ->
  list_size (0 -- 3) mutation_gen >>= fun ma ->
  list_size (0 -- 3) mutation_gen >>= fun mb -> return (spec, other, ma, mb)

let print_spec (d, attrs) =
  Printf.sprintf "%s {%s}" dn_spellings.(d)
    (String.concat "; " (List.map (fun (a, vs) -> a ^ "=" ^ String.concat "," vs) attrs))

let prop_equal_iff_same_digest =
  QCheck.Test.make ~name:"entry: equal <=> same content_hash64" ~count:1000
    (QCheck.make
       ~print:(fun (a, b, ma, mb) ->
         Printf.sprintf "%s / %s / [%s] / [%s]" (print_spec a) (print_spec b)
           (String.concat "; " (List.map mutation_name ma))
           (String.concat "; " (List.map mutation_name mb)))
       pair_gen)
    (fun (sa, sb, ma, mb) ->
      let a = List.fold_left mutate (make_spec sa) ma in
      let b = List.fold_left mutate (make_spec sb) mb in
      let same = Int64.equal (Entry.content_hash64 a) (Entry.content_hash64 b) in
      Bool.equal (Entry.equal a b) same && Bool.equal (Entry.equal b a) same)

(* --- The size cache describes its own record -------------------------
   Every step first fills the cache of the entry it starts from; the
   result's size must still be what a freshly made entry of the same
   content measures. *)

let fresh_size e = Ber.entry_size (Entry.make (Entry.dn e) (Entry.attributes e))

let prop_cached_size_is_fresh =
  QCheck.Test.make ~name:"entry: cached encoded size = fresh size" ~count:500
    (QCheck.make
       ~print:(fun (spec, steps) ->
         Printf.sprintf "%s / [%s]" (print_spec spec)
           (String.concat "; " (List.map mutation_name steps)))
       QCheck.Gen.(pair spec_gen (list_size (1 -- 6) mutation_gen)))
    (fun (spec, steps) ->
      let e = make_spec spec in
      Ber.entry_size e = fresh_size e
      && snd
           (List.fold_left
              (fun (e, ok) step ->
                ignore (Ber.entry_size e : int);
                let e' = mutate e step in
                (e', ok && Ber.entry_size e' = fresh_size e'))
              (e, true) steps))

(* --- The DER cache describes its own record --------------------------
   Every step first fills the DER cache of the entry it starts from;
   the result's image, cached or not, must still be what a freshly
   made entry of the same content encodes to.  The last entry, whose
   cache no step filled, is then journaled by a durable consumer,
   which keeps its image, and checkpointed, which reads it: the kept
   image must be the fresh one too. *)

let fresh_der e = Ber_codec.Der.entry (Entry.make (Entry.dn e) (Entry.attributes e))

let written e =
  let w = Ldap_compile.Wbuf.create () in
  Ber_codec.Der.W.entry w e;
  Ldap_compile.Wbuf.contents w

let journal_and_checkpoint e =
  let module R = Ldap_resync in
  let c = R.Consumer.create (Query.make ~base:(dn "o=xyz") (Filter.of_string_exn "(cn=*)")) in
  let store = Ldap_store.Store.create (Ldap_store.Medium.memory ()) ~name:"c" in
  ignore (Result.get_ok (R.Consumer.open_store c store));
  R.Consumer.apply_reply c
    (R.Protocol.reply ~kind:R.Protocol.Incremental ~actions:[ R.Action.Add e ] ~cookie:(Some "rs:1:1"));
  let journaled = Entry.cached_der e in
  R.Consumer.checkpoint c;
  (journaled, Entry.cached_der e)

let prop_cached_der_is_fresh =
  QCheck.Test.make ~name:"entry: cached DER image = fresh encode" ~count:500
    (QCheck.make
       ~print:(fun (spec, steps) ->
         Printf.sprintf "%s / [%s]" (print_spec spec)
           (String.concat "; " (List.map mutation_name steps)))
       QCheck.Gen.(pair spec_gen (list_size (1 -- 6) mutation_gen)))
    (fun (spec, steps) ->
      let e = make_spec spec in
      let e, ok =
        List.fold_left
          (fun (e, ok) step ->
            let ok = ok && Ber_codec.Der.entry e = fresh_der e in
            let e' = mutate e step in
            (e', ok && written e' = fresh_der e'))
          (e, written e = fresh_der e)
          steps
      in
      let fresh = Some (fresh_der e) in
      ok && journal_and_checkpoint e = (fresh, fresh))

(* An attribute that is removed and then added back is listed once:
   the entry reads exactly like a fresh one with the same content. *)
let test_readd_lists_once () =
  let e =
    Entry.make (dn "cn=a,o=x") [ ("cn", [ "a" ]); ("mail", [ "m@x" ]); ("sn", [ "s" ]) ]
  in
  let deleted = match Entry.delete_values e "mail" [] with Ok e -> e | Error m -> failwith m in
  let replaced = Entry.replace_values e "mail" [] in
  List.iter
    (fun (label, gone) ->
      let back = add_values gone "mail" [ "n@x"; "o@x" ] in
      let fresh =
        Entry.make (dn "cn=a,o=x")
          [ ("cn", [ "a" ]); ("mail", [ "n@x"; "o@x" ]); ("sn", [ "s" ]) ]
      in
      check_bool (label ^ ": equal to fresh") true (Entry.equal back fresh);
      check_int (label ^ ": attributes listed") 3 (List.length (Entry.attributes back));
      check_int (label ^ ": entry size") (Ber.entry_size fresh) (Ber.entry_size back))
    [ ("delete", deleted); ("replace", replaced) ]

(* The per-entry heap footprint of a built directory, every entry's
   filter-ready form included: a search matching every entry evaluates
   them all first.  Reachable words per entry (DN and strings
   included, the list spine excluded) stay within 5% of the figure
   measured when the slot array became the entry's only attribute
   store. *)
let footprint_words_per_entry = 164.1

let test_entry_footprint () =
  let ent =
    Ldap_dirgen.Enterprise.build
      { Ldap_dirgen.Enterprise.default_config with employees = 2_000; countries = 5 }
  in
  let b = Ldap_dirgen.Enterprise.backend ent in
  let all = Query.make ~base:(dn "o=xyz") (Filter.of_string_exn "(objectClass=*)") in
  let entries = Backend.fold_entries b ~init:[] ~f:(fun acc e -> e :: acc) in
  let n = List.length entries in
  (match Backend.search b all with
  | Ok r -> check_int "search matches every entry" n (List.length r.Backend.entries)
  | Error _ -> Alcotest.fail "search failed");
  Gc.full_major ();
  let words = float (Obj.reachable_words (Obj.repr entries) - (3 * n)) /. float n in
  check_bool
    (Printf.sprintf "%.1f words per entry <= %.1f" words (footprint_words_per_entry *. 1.05))
    true
    (words <= footprint_words_per_entry *. 1.05)

let suite =
  [
    Alcotest.test_case "attribute access" `Quick test_attribute_access;
    Alcotest.test_case "merge and dedup" `Quick test_merge_and_dedup;
    Alcotest.test_case "modifications" `Quick test_modifications;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "referral entries" `Quick test_referral;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "ber sizes" `Quick test_ber_sizes;
    QCheck_alcotest.to_alcotest prop_derived_view_equals_rebuilt;
    QCheck_alcotest.to_alcotest prop_equal_iff_same_digest;
    QCheck_alcotest.to_alcotest prop_cached_size_is_fresh;
    QCheck_alcotest.to_alcotest prop_cached_der_is_fresh;
    Alcotest.test_case "re-added attribute listed once" `Quick test_readd_lists_once;
    Alcotest.test_case "entry footprint" `Quick test_entry_footprint;
  ]
