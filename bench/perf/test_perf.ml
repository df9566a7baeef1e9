open Perf_bench

let feq = Alcotest.float 1e-9

let percentile_rank () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (Stats.percentile a 0.5);
  Alcotest.check feq "p99 of 1..100" 99.0 (Stats.percentile a 0.99);
  Alcotest.check feq "p100 is the max" 100.0 (Stats.percentile a 1.0);
  Alcotest.check feq "one sample" 7.0 (Stats.percentile [| 7.0 |] 0.99)

let ten_beyond () =
  let check n p want =
    Alcotest.check Alcotest.int (Printf.sprintf "beyond p%g of %d" (100.0 *. p) n) want (Stats.beyond n p)
  in
  check 1000 0.99 10;
  check 999 0.99 9;
  check 100 0.9 10;
  check 99 0.9 9;
  check 0 0.5 0

let quartiles_like_python () =
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "median" 5.5 m;
  Alcotest.check feq "q3" 8.25 q3;
  (* statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5] *)
  let q1, m, q3 = Stats.quartiles [ 3.0; 1.0 ] in
  Alcotest.check feq "two: q1" 0.5 q1;
  Alcotest.check feq "two: median" 2.0 m;
  Alcotest.check feq "two: q3" 3.5 q3

let spin ns =
  let t0 = Clock.now_ns () in
  while Clock.now_ns () - t0 < ns do
    ()
  done

let self_time () =
  let tr = Trace.create ~enabled:true in
  let outer = Trace.name "client.update" and inner = Trace.name "backend.apply" in
  let renamed = Trace.name "controller.adapt" in
  Trace.enter tr outer;
  spin 200_000;
  Trace.within tr inner (fun () -> spin 300_000);
  Trace.within tr inner (fun () -> spin 100_000);
  Trace.leave tr;
  Trace.enter tr (Trace.name "controller.observe");
  Trace.leave_as tr renamed;
  let o = Trace.summary tr outer and i = Trace.summary tr inner in
  Alcotest.check Alcotest.int "outer calls" 1 o.Trace.calls;
  Alcotest.check Alcotest.int "inner calls" 2 i.Trace.calls;
  let inner_total = Array.fold_left ( +. ) 0.0 i.Trace.durations_ns in
  Alcotest.check feq "outer self = outer - children"
    (o.Trace.durations_ns.(0) -. inner_total)
    (float_of_int o.Trace.self_ns);
  Alcotest.(check bool) "outer self covers its own spin" true (o.Trace.self_ns >= 200_000);
  Alcotest.check Alcotest.int "children add nothing to the top level"
    (int_of_float o.Trace.durations_ns.(0)
    + int_of_float (Trace.summary tr renamed).Trace.durations_ns.(0))
    (Trace.top_level_ns tr);
  Alcotest.check Alcotest.int "leave_as renames" 1 (Trace.summary tr renamed).Trace.calls;
  let off = Trace.create ~enabled:false in
  Trace.within off outer (fun () -> ());
  Alcotest.check Alcotest.int "disabled records nothing" 0 (Trace.summary off outer).Trace.calls

let verdict = Alcotest.testable (Fmt.of_to_string Compare.verdict_to_string) ( = )

let compare_verdicts () =
  let lat = Compare.verdict ~lower_is_better:true ~bound:0.1 in
  let base = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let shift k = List.map (fun x -> x *. k) base in
  Alcotest.check verdict "faster everywhere" Compare.Better (lat base (shift 0.8));
  Alcotest.check verdict "slower beyond the bound" Compare.Worse (lat base (shift 1.2));
  Alcotest.check verdict "slower within the bound" Compare.Within (lat base (shift 1.05));
  let noisy = [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ] in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved (lat noisy (shift 1.15));
  let thr = Compare.verdict ~lower_is_better:false ~bound:0.1 in
  Alcotest.check verdict "higher is better" Compare.Better (thr base (shift 1.2));
  Alcotest.check verdict "8 of 10 pair wins is not a gain" Compare.Within
    (lat base (List.mapi (fun i x -> if i < 8 then x *. 0.8 else x *. 1.05) base))

let small_enterprise () =
  Ldap_dirgen.Enterprise.build
    { Ldap_dirgen.Enterprise.default_config with employees = 300; countries = 3; seed = 5 }

(* Update.pp_op prints only kind and target; the digest must also see
   the payload. *)
let add_op b op =
  let open Ldap in
  Buffer.add_string b (Update.op_kind_name op);
  Buffer.add_char b ' ';
  Buffer.add_string b (Dn.to_string (Update.op_target op));
  let values attr vs = Buffer.add_string b (Printf.sprintf " %s=%s" attr (String.concat "|" vs)) in
  (match op with
  | Update.Add e -> List.iter (fun (a, vs) -> values a vs) (Entry.attributes e)
  | Update.Modify (_, mods) ->
      List.iter (fun (m : Update.mod_item) -> values m.Update.mod_attr m.Update.mod_values) mods
  | Update.Modify_dn { new_rdn; _ } -> Buffer.add_string b (" " ^ Dn.rdn_to_string new_rdn)
  | Update.Delete _ -> ());
  Buffer.add_char b '\n'

let digest ops =
  let b = Buffer.create 4096 in
  Array.iter (add_op b) ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let generator () =
  let ent = small_enterprise () in
  let ops seed =
    let g = Gen.create ent ~seed in
    Array.init 600 (fun _ -> Gen.next g)
  in
  let a = ops 9 and b = ops 9 and c = ops 10 in
  Alcotest.(check string) "same seed, same ops" (digest a) (digest b);
  Alcotest.(check bool) "another seed, other ops" true (digest a <> digest c);
  let renames =
    Array.fold_left (fun n op -> match op with Ldap.Update.Modify_dn _ -> n + 1 | _ -> n) 0 a
  in
  Alcotest.(check int) "5 renames in every 100 operations" 30 renames;
  let backend = Ldap_dirgen.Enterprise.backend ent in
  Array.iteri
    (fun i op ->
      match Ldap.Backend.apply backend op with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "op %d fails: %s" i e)
    a

let json_round_trip () =
  let j =
    Json.Obj [ ("a", Json.Num 0.1); ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Str "x\"y" ]) ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "round trip" true (j = j')
  | Error e -> Alcotest.fail e

(* The names and units a run prints are the ones BENCHMARK.json
   declares, in both modes. *)
let declared_metrics () =
  let bench =
    match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let declared key =
    match Json.member key bench with
    | Some (Json.Arr items) ->
        List.map
          (fun i ->
            match (Json.member "name" i, Json.member "unit" i) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> Alcotest.failf "%s: entry without name and unit" key)
          items
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  let printed spans =
    let o = Workloads.run Workloads.Edge_read ~seed:11 ~seconds:0.0 ~smoke:true ~spans in
    Alcotest.(check int) "no failures" 0 o.Workloads.failed;
    List.map (fun (m : Workloads.metric) -> (m.Workloads.name, m.Workloads.unit_)) o.Workloads.metrics
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" (declared "end_to_end") (printed None);
  Out_channel.with_open_bin Filename.null (fun oc ->
      Alcotest.check pairs "per_layer" (declared "per_layer") (printed (Some oc)))

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rank" `Quick percentile_rank;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "quartiles" `Quick quartiles_like_python;
        ] );
      ("trace", [ Alcotest.test_case "self time over nested spans" `Quick self_time ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick compare_verdicts ]);
      ( "inputs",
        [
          Alcotest.test_case "generator determinism and validity" `Quick generator;
          Alcotest.test_case "json round trip" `Quick json_round_trip;
        ] );
      ("benchmark", [ Alcotest.test_case "declared metrics" `Quick declared_metrics ]);
    ]
