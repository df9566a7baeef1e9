(* Tests for the compiled hot paths: the interning/buffer substrate in
   lib/compile, the bytecode filter evaluator against the interpreted
   oracle, staged containment conditions, and zero-copy DER encoding
   with buffer reuse. *)

open Ldap
module Compile = Ldap_compile
module C = Ldap_containment

let check_bool = Alcotest.(check bool)

(* [Entry.edit] with one add item: adds never fail. *)
let add_values e attr values =
  Result.get_ok (Entry.edit e [ { Entry.mod_kind = Add_values; mod_attr = attr; mod_values = values } ])

(* --- Interning and buffers -------------------------------------------- *)

let test_attr_id () =
  let a = Compile.Attr_id.intern "cn" in
  let b = Compile.Attr_id.intern "cn" in
  check_bool "interning is stable" true (Int.equal a b);
  Alcotest.(check string) "name round-trips" "cn" (Compile.Attr_id.name a);
  let c = Compile.Attr_id.intern "sn" in
  check_bool "distinct names, distinct ids" false (Int.equal a c);
  check_bool "interned finds existing" true
    (match Compile.Attr_id.interned "cn" with
    | Some x -> Int.equal x a
    | None -> false)

let test_wbuf () =
  let w = Compile.Wbuf.create ~capacity:4 () in
  Compile.Wbuf.prepend_string w "world";
  Compile.Wbuf.prepend_char w ' ';
  Compile.Wbuf.prepend_string w "hello";
  Alcotest.(check string) "prepends read forwards" "hello world"
    (Compile.Wbuf.contents w);
  Alcotest.(check int) "length" 11 (Compile.Wbuf.length w);
  let bytes, off, len = Compile.Wbuf.view w in
  Alcotest.(check string) "view exposes live region" "hello world"
    (Bytes.sub_string bytes off len);
  let m = Compile.Wbuf.mark w in
  Compile.Wbuf.prepend_string w "> ";
  Alcotest.(check int) "since measures the new bytes" 2 (Compile.Wbuf.since w m);
  Compile.Wbuf.clear w;
  Alcotest.(check int) "clear empties" 0 (Compile.Wbuf.length w);
  Compile.Wbuf.prepend_string w "x";
  Alcotest.(check string) "reused after clear" "x" (Compile.Wbuf.contents w)

(* --- Compiled entry views --------------------------------------------- *)

let test_entry_compiled_memo () =
  let e =
    Entry.make (Dn.of_string_exn "cn=a,o=xyz")
      [ ("cn", [ "A" ]); ("age", [ "007" ]) ]
  in
  let c1 = Entry.compiled e in
  let c2 = Entry.compiled e in
  check_bool "compiled returns the stored slots" true (c1 == c2);
  (match Compile.Prog.slot_index c1 (Compile.Attr_id.intern "age") with
  | -1 -> Alcotest.fail "age slot missing"
  | i ->
      Alcotest.(check (array string)) "integer canonical precomputed" [| "7" |]
        c1.(i).Compile.Prog.canon;
      check_bool "integer pre-parsed" true (c1.(i).Compile.Prog.ints = [| Some 7 |]));
  let e2 = Entry.replace_values e "cn" [ "b" ] in
  check_bool "mutation yields a fresh view" false (Entry.compiled e2 == c1)

(* The content digest is memoized in the entry record: a second call
   allocates nothing, and a mutator's result carries a fresh digest. *)
let test_cached_hash () =
  let e = Entry.make (Dn.of_string_exn "cn=a,o=xyz") [ ("cn", [ "a" ]) ] in
  let h1 = Entry.content_hash64 e in
  let before = Gc.minor_words () in
  let h2 = Entry.content_hash64 e in
  let words = Gc.minor_words () -. before in
  check_bool "hash stable" true (Int64.equal h1 h2);
  check_bool "second call reads the memo" true (words = 0.);
  let e2 = add_values e "mail" [ "m@x" ] in
  check_bool "recomputed after mutation" false (Int64.equal h1 (Entry.content_hash64 e2));
  check_bool "equal entries hash equal" true
    (Int64.equal h1
       (Entry.content_hash64 (Entry.make (Dn.of_string_exn "cn=a,o=xyz") [ ("cn", [ "a" ]) ])))

(* --- Bytecode filter evaluation = interpreted oracle ------------------- *)

(* The pool covers every matching syntax of the default schema: cn/sn
   case-ignore, age integer, telephoneNumber telephone, ref
   case-exact, uid undeclared. *)
let attr_pool = [ "cn"; "sn"; "age"; "telephoneNumber"; "ref"; "uid" ]

let value_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (1 -- 4);
        map string_of_int (int_range (-30) 130);
        oneofl [ "Doe"; " padded "; "0042"; "42" ];
      ])

let filter_gen =
  let open QCheck.Gen in
  let attr = oneofl attr_pool in
  let pred =
    oneof
      [
        map2 (fun a v -> Filter.Equality (a, v)) attr value_gen;
        map2 (fun a v -> Filter.Greater_eq (a, v)) attr value_gen;
        map2 (fun a v -> Filter.Less_eq (a, v)) attr value_gen;
        map2 (fun a v -> Filter.Approx (a, v)) attr value_gen;
        map (fun a -> Filter.Present a) attr;
        map2
          (fun a (i, any, f) -> Filter.Substrings (a, { Filter.initial = i; any; final = f }))
          attr
          (oneof
             [
               map (fun v -> (Some v, [], None)) value_gen;
               map (fun v -> (None, [], Some v)) value_gen;
               map2 (fun a b -> (Some a, [], Some b)) value_gen value_gen;
               map2 (fun a b -> (None, [ a ], Some b)) value_gen value_gen;
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
  tree 3

let attrs_gen =
  QCheck.Gen.(
    let* attrs =
      list_size (0 -- 5)
        (pair (oneofl attr_pool) (list_size (1 -- 3) value_gen))
    in
    return (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) attrs))

let entry_gen = QCheck.Gen.map (Entry.make (Dn.of_string_exn "cn=p,o=xyz")) attrs_gen

let case_gen =
  QCheck.Gen.(
    let* f = filter_gen in
    let* attrs = attrs_gen in
    return (f, Entry.make (Dn.of_string_exn "cn=p,o=xyz") attrs))

let print_case (f, e) =
  Printf.sprintf "%s on %s" (Filter.to_string f) (Format.asprintf "%a" Entry.pp e)

let prop_compiled_matches =
  QCheck.Test.make ~name:"compile: bytecode matches = interpreted matches"
    ~count:1000
    (QCheck.make ~print:print_case case_gen)
    (fun (f, e) ->
      Bool.equal (Filter.matcher f e) (Filter.matches f e))

(* --- Staged containment conditions ------------------------------------ *)

let templates =
  [
    ("(serialnumber=_)", 1);
    ("(serialnumber=_*)", 1);
    ("(age=_)", 1);
    ("(age>=_)", 1);
    ("(age<=_)", 1);
    ("(&(departmentnumber=_)(divisionnumber=_))", 2);
    ("(&(divisionnumber=_)(departmentnumber=*))", 1);
    ("(sn=*)", 0);
  ]

let hole_gen = QCheck.Gen.(oneofl [ "1"; "2"; "24"; "2406"; "25"; "9" ])

let instance_gen =
  QCheck.Gen.(
    let* ti = int_bound (List.length templates - 1) in
    let tmpl, arity = List.nth templates ti in
    let* values = array_repeat arity hole_gen in
    return (tmpl, values))

let prop_staged_symbolic =
  QCheck.Test.make ~name:"compile: staged condition = Symbolic.eval" ~count:800
    (QCheck.make
       ~print:(fun ((lt, lv), (rt, rv)) ->
         Printf.sprintf "%s%s in %s%s" lt
           (String.concat "," (Array.to_list lv))
           rt
           (String.concat "," (Array.to_list rv)))
       QCheck.Gen.(pair instance_gen instance_gen))
    (fun ((lt, lv), (rt, rv)) ->
      let left = Template.of_string_exn lt
      and right = Template.of_string_exn rt in
      match C.Symbolic.compile ~left ~right with
      | None -> true
      | Some cond ->
          let staged = C.Symbolic.Compiled.compile cond in
          Bool.equal
            (C.Symbolic.Compiled.eval staged ~left:lv ~right:rv)
            (C.Symbolic.eval cond ~left:lv ~right:rv))

(* --- Zero-copy DER encoding with buffer reuse -------------------------- *)

let prop_codec_reuse =
  QCheck.Test.make ~name:"compile: writer encode reuses its buffer" ~count:300
    (QCheck.make
       ~print:(fun e -> Format.asprintf "%a" Entry.pp e)
       entry_gen)
    (fun e ->
      let msg = Ber_codec.entry_message e in
      let w = Compile.Wbuf.create ~capacity:8 () in
      Ber_codec.encode_to w msg;
      let first = Compile.Wbuf.contents w in
      Compile.Wbuf.clear w;
      Ber_codec.encode_to w msg;
      let second = Compile.Wbuf.contents w in
      String.equal first second
      && String.equal first (Ber_codec.encode msg)
      &&
      match Ber_codec.decode first with
      | Ok { Ber_codec.op = Ber_codec.Search_result_entry e'; _ } ->
          Entry.equal e e'
      | _ -> false)

let suite =
  [
    Alcotest.test_case "attr interning" `Quick test_attr_id;
    Alcotest.test_case "wbuf prepend/reuse" `Quick test_wbuf;
    Alcotest.test_case "entry compiled memo" `Quick test_entry_compiled_memo;
    Alcotest.test_case "entry cached hash" `Quick test_cached_hash;
    QCheck_alcotest.to_alcotest prop_compiled_matches;
    QCheck_alcotest.to_alcotest prop_staged_symbolic;
    QCheck_alcotest.to_alcotest prop_codec_reuse;
  ]
