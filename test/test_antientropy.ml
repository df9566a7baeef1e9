(* Merkle anti-entropy: hash-tree invariants and reconciliation,
   unit tests plus the QCheck properties the design leans on —
   shape-independent roots, single-path mutation, and reconvergence
   from random drift at sub-cold cost. *)

open Ldap
module AE = Ldap_antientropy

let base = Dn.of_string_exn "o=test"

let mk_entry i ~sn ~mail =
  Entry.make
    (Dn.child_ava base "cn" (Printf.sprintf "e%04d" i))
    [
      ("objectclass", [ "person" ]);
      ("cn", [ Printf.sprintf "e%04d" i ]);
      ("sn", [ sn ]);
      ("mail", [ mail ]);
    ]

let small_config = { AE.Tree.segments = 16; branch_factor = 4 }

(* --- Unit tests ------------------------------------------------------- *)

let test_depth_and_shape () =
  Alcotest.(check int) "depth" 3 (AE.Tree.depth AE.Tree.default_config);
  let branch_count config = List.length (AE.Tree.branches (AE.Tree.of_seq ~config Seq.empty)) in
  Alcotest.(check int) "branches" 16 (branch_count AE.Tree.default_config);
  Alcotest.(check int) "ragged branches" 5
    (branch_count { AE.Tree.segments = 17; branch_factor = 4 });
  Alcotest.(check (list int)) "segments of branch" [ 4; 5; 6; 7 ]
    (AE.Tree.segments_of_branch small_config 1)

let test_entry_hash_order_independent () =
  let a =
    Entry.make (Dn.child_ava base "cn" "x")
      [ ("sn", [ "b"; "a" ]); ("cn", [ "x" ]) ]
  in
  let b =
    Entry.make (Dn.child_ava base "cn" "x")
      [ ("cn", [ "x" ]); ("sn", [ "a"; "b" ]) ]
  in
  Alcotest.(check bool) "attr order irrelevant" true
    (Int64.equal (Entry.content_hash64 a) (Entry.content_hash64 b))

let test_segment_stable_under_mutation () =
  let e = mk_entry 3 ~sn:"one" ~mail:"one@x" in
  let e' = mk_entry 3 ~sn:"two" ~mail:"two@x" in
  Alcotest.(check int) "segment keyed by DN"
    (AE.Tree.segment_of_dn small_config (Entry.dn e))
    (AE.Tree.segment_of_dn small_config (Entry.dn e'))

let test_serve_root () =
  let entries = List.init 20 (fun i -> mk_entry i ~sn:"s" ~mail:"m@x") in
  let reply =
    AE.Exchange.serve
      ~content:(fun () -> List.to_seq entries)
      ~cookie:(fun () -> None)
      AE.Exchange.Root
  in
  match reply with
  | AE.Exchange.Root_hash h ->
      Alcotest.(check bool) "root matches local tree" true
        (Int64.equal h (AE.Tree.root (AE.Tree.of_seq (List.to_seq entries))))
  | _ -> Alcotest.fail "expected Root_hash"

(* --- Generators ------------------------------------------------------- *)

let word_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 8))

(* A directory of [n] distinct-DN entries with random attribute
   values. *)
let entries_gen =
  let open QCheck.Gen in
  int_range 40 120 >>= fun n ->
  list_repeat n (pair word_gen word_gen) >|= fun attrs ->
  List.mapi (fun i (sn, mail) -> mk_entry i ~sn ~mail) attrs

(* --- Property: identical content, identical root ----------------------- *)

let shapes =
  [
    { AE.Tree.segments = 8; branch_factor = 2 };
    { AE.Tree.segments = 64; branch_factor = 8 };
    { AE.Tree.segments = 256; branch_factor = 16 };
    { AE.Tree.segments = 33; branch_factor = 5 };
  ]

let rotate k l =
  let n = List.length l in
  if n = 0 then l
  else
    let k = k mod n in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let prop_root_shape_independent =
  QCheck.Test.make ~name:"antientropy: root independent of shape and order"
    ~count:60
    (QCheck.make
       ~print:(fun (es, _) -> Printf.sprintf "%d entries" (List.length es))
       QCheck.Gen.(pair entries_gen (int_range 0 1000)))
    (fun (entries, k) ->
      let root0 = AE.Tree.root (AE.Tree.of_seq ~config:(List.hd shapes) (List.to_seq entries)) in
      List.for_all
        (fun config ->
          let reordered = rotate k (List.rev entries) in
          Int64.equal root0 (AE.Tree.root (AE.Tree.of_seq ~config (List.to_seq reordered))))
        (List.tl shapes))

(* --- Property: one mutation flips exactly one path --------------------- *)

let prop_single_mutation_single_path =
  QCheck.Test.make
    ~name:"antientropy: single mutation flips one segment-branch-root path"
    ~count:60
    (QCheck.make
       ~print:(fun (es, j, _) ->
         Printf.sprintf "%d entries, mutate %d" (List.length es) j)
       QCheck.Gen.(triple entries_gen (int_range 0 1000) word_gen))
    (fun (entries, j, fresh) ->
      let j = j mod List.length entries in
      let mutated =
        List.mapi
          (fun i e ->
            if i = j then mk_entry i ~sn:("z" ^ fresh) ~mail:"mutated@x" else e)
          entries
      in
      let victim = List.nth entries j in
      QCheck.assume
        (not (Int64.equal (Entry.content_hash64 victim)
                (Entry.content_hash64 (List.nth mutated j))));
      let config = small_config in
      let before = AE.Tree.of_seq ~config (List.to_seq entries) in
      let after = AE.Tree.of_seq ~config (List.to_seq mutated) in
      let seg_diffs =
        List.filter
          (fun s -> not (Int64.equal (AE.Tree.segment before s) (AE.Tree.segment after s)))
          (List.init config.AE.Tree.segments Fun.id)
      in
      let branch_diffs = AE.Tree.diff_branches before (AE.Tree.branches after) in
      (not (Int64.equal (AE.Tree.root before) (AE.Tree.root after)))
      && seg_diffs = [ AE.Tree.segment_of_dn config (Entry.dn victim) ]
      && (match branch_diffs with
         | [ b ] -> List.mem (List.hd seg_diffs) (AE.Tree.segments_of_branch config b)
         | _ -> false))

(* --- Property: reconciliation reconverges, cheaper than cold ----------- *)

(* Random drift: each server entry is kept, mutated or deleted by the
   per-entry rolls, plus a few entries only the server has. *)
let drift_gen =
  let open QCheck.Gen in
  entries_gen >>= fun entries ->
  list_repeat (List.length entries) (pair (int_range 0 99) word_gen)
  >>= fun rolls ->
  int_range 0 5 >>= fun born ->
  list_repeat born (pair word_gen word_gen) >|= fun born_attrs ->
  (entries, rolls, born_attrs)

let cold_bytes entries =
  List.fold_left (fun acc e -> acc + Ber.entry_size e) 0 entries

let prop_reconcile_reconverges =
  QCheck.Test.make
    ~name:"antientropy: reconciliation reconverges, cheaper than cold"
    ~count:40
    (QCheck.make
       ~print:(fun (es, _, born) ->
         Printf.sprintf "%d entries, %d born" (List.length es) (List.length born))
       drift_gen)
    (fun (entries, rolls, born_attrs) ->
      (* Client holds the pre-drift content; the server applied ~10%
         mutations, ~5% deletions and a few births. *)
      let server =
        List.concat
          (List.mapi
             (fun i (e, (roll, w)) ->
               if roll < 10 then
                 [ mk_entry i ~sn:("drift" ^ w) ~mail:"drifted@x" ]
               else if roll < 15 then []
               else [ e ])
             (List.combine entries rolls))
        @ List.mapi
            (fun k (sn, mail) -> mk_entry (10_000 + k) ~sn ~mail)
            born_attrs
      in
      let client = ref entries in
      let result =
        AE.Exchange.reconcile ~config:small_config
          ~local:(fun () -> List.to_seq !client)
          ~apply:(fun ~upserts ~deletes ~cookie:_ ->
            let dead dn =
              List.exists (fun d -> Dn.compare d dn = 0) deletes
            in
            let replaced dn =
              List.exists (fun u -> Dn.compare (Entry.dn u) dn = 0) upserts
            in
            client :=
              List.filter
                (fun e -> not (dead (Entry.dn e) || replaced (Entry.dn e)))
                !client
              @ upserts)
          ~rpc:(fun request ->
            Ok
              (AE.Exchange.serve
                 ~content:(fun () -> List.to_seq server)
                 ~cookie:(fun () -> None)
                 request))
          ()
      in
      match result with
      | Error e -> QCheck.Test.fail_reportf "reconcile failed: %s" e
      | Ok report ->
          let sort = List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) in
          let converged_content =
            List.length !client = List.length server
            && List.for_all2 Entry.equal (sort !client) (sort server)
          in
          let walk_bytes = report.AE.Exchange.bytes_sent + report.AE.Exchange.bytes_received in
          (* The walk ships whole drifted segments plus three hash
             tiers, so it only undercuts cold re-fetch when the drift
             left a majority of segments clean; the generator's ~15%
             drift usually does, but its tail can dirty nearly all 16
             segments and legitimately tie with cold. *)
          let touched =
            let before = AE.Tree.of_seq ~config:small_config (List.to_seq entries) in
            let after = AE.Tree.of_seq ~config:small_config (List.to_seq server) in
            List.length
              (List.filter
                 (fun s ->
                   not (Int64.equal (AE.Tree.segment before s) (AE.Tree.segment after s)))
                 (List.init small_config.AE.Tree.segments Fun.id))
          in
          report.AE.Exchange.converged && converged_content
          && (2 * touched > small_config.AE.Tree.segments
             || walk_bytes < cold_bytes server))

let suite =
  [
    Alcotest.test_case "tree shape" `Quick test_depth_and_shape;
    Alcotest.test_case "entry hash canonical" `Quick test_entry_hash_order_independent;
    Alcotest.test_case "segment stable under mutation" `Quick
      test_segment_stable_under_mutation;
    Alcotest.test_case "serve root" `Quick test_serve_root;
    QCheck_alcotest.to_alcotest prop_root_shape_independent;
    QCheck_alcotest.to_alcotest prop_single_mutation_single_path;
    QCheck_alcotest.to_alcotest prop_reconcile_reconverges;
  ]
