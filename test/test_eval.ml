(* Smoke tests for the evaluation harness: the figures must run at a
   tiny scale and reproduce the paper's qualitative shapes, and the
   shared helpers (JSON writer, percentile, experiment table, department
   fleet) must behave as documented. *)
module D = Ldap_dirgen
module E = Ldap_eval

let check_bool = Alcotest.(check bool)

let tiny_config =
  { D.Enterprise.default_config with D.Enterprise.employees = 2_000 }

let scenario = lazy (E.Scenario.setup ~config:tiny_config ())

let cell table ~row ~col =
  let t = table in
  let col_idx =
    match List.find_index (fun c -> c = col) t.E.Report.columns with
    | Some i -> i
    | None -> Alcotest.failf "no column %s" col
  in
  List.nth (List.nth t.E.Report.rows row) col_idx

let fcell table ~row ~col = float_of_string (cell table ~row ~col)

let test_report_format () =
  let t =
    E.Report.make ~title:"t" ~columns:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] ()
  in
  let s = E.Report.to_string t in
  check_bool "title" true (String.length s > 0);
  let contains frag =
    let rec find i =
      i + String.length frag <= String.length s
      && (String.sub s i (String.length frag) = frag || find (i + 1))
    in
    find 0
  in
  check_bool "contains rows" true (List.for_all contains [ "333"; "bb" ])

let test_plot_render () =
  let chart =
    E.Plot.render ~y_max:1.0 ~x_labels:[ "a"; "b"; "c" ]
      ~series:[ ("s1", [ 0.0; 0.5; 1.0 ]); ("s2", [ 1.0; 0.5 ]) ]
      ()
  in
  let contains frag =
    let rec find i =
      i + String.length frag <= String.length chart
      && (String.sub chart i (String.length frag) = frag || find (i + 1))
    in
    find 0
  in
  check_bool "axis" true (contains "1.00");
  check_bool "labels" true (contains "a" && contains "b" && contains "c");
  check_bool "legend" true (contains "s1" && contains "s2");
  check_bool "glyphs" true (contains "*" && contains "+")

let test_figure4_shape () =
  let t =
    E.Figures.figure4 ~fractions:[ 0.05; 0.30 ] ~length:3_000 (Lazy.force scenario)
  in
  (* Filter beats subtree at the small budget. *)
  let f_small = fcell t ~row:0 ~col:"filter hit" in
  let s_small = fcell t ~row:0 ~col:"subtree hit" in
  check_bool "filter wins at small size" true (f_small > s_small);
  (* Hit ratio grows with size. *)
  let f_large = fcell t ~row:1 ~col:"filter hit" in
  check_bool "monotone" true (f_large >= f_small);
  check_bool "meaningful hit ratio" true (f_large > 0.3)

let test_figure8_shape () =
  let t =
    E.Figures.figure8 ~filter_counts:[ 20; 120 ] ~length:3_000 (Lazy.force scenario)
  in
  let user_small = fcell t ~row:0 ~col:"user queries only" in
  let user_large = fcell t ~row:1 ~col:"user queries only" in
  let gen_large = fcell t ~row:1 ~col:"generalized only" in
  check_bool "cache grows" true (user_large >= user_small);
  check_bool "generalized beats cache for serials" true (gen_large > user_large)

let test_figure9_shape () =
  let t =
    E.Figures.figure9 ~filter_counts:[ 20; 120 ] ~length:3_000 (Lazy.force scenario)
  in
  let user_large = fcell t ~row:1 ~col:"user queries only" in
  let gen_large = fcell t ~row:1 ~col:"generalized only" in
  check_bool "generalization ineffective for mail" true (gen_large < user_large)

let test_ablation_shape () =
  let t = E.Figures.resync_ablation ~updates:400 ~filters:5 () in
  let actions name =
    let row =
      List.find (fun r -> List.hd r = name) t.E.Report.rows
    in
    int_of_string (List.nth row 2)
  in
  check_bool "session history minimal" true
    (actions "session history" <= actions "changelog");
  check_bool "baselines conservative" true
    (actions "session history" <= actions "tombstone")

let test_overhead_linear () =
  let t =
    E.Figures.processing_overhead ~filter_counts:[ 40; 160 ] ~length:1_000
      (Lazy.force scenario)
  in
  let c_small = fcell t ~row:0 ~col:"comparisons/query" in
  let c_large = fcell t ~row:1 ~col:"comparisons/query" in
  check_bool "cost grows with stored filters" true (c_large > c_small)

(* --- Shared harness helpers --------------------------------------------- *)

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_json_escapes () =
  let s v = E.Json.to_string (E.Json.String v) in
  check_string "quote and backslash" {|"a\"b\\c"|} (s {|a"b\c|});
  check_string "newline and controls" {|"x\ny\u0001\u001f"|} (s "x\ny\001\031");
  check_string "member keys escaped too" {|{"k\"": null}|}
    (E.Json.to_string (E.Json.Obj [ ({|k"|}, E.Json.Null) ]))

let test_json_numbers () =
  let s = E.Json.to_string in
  check_string "int" "42" (s (E.Json.Int 42));
  check_string "negative int" "-7" (s (E.Json.Int (-7)));
  check_string "two digits" "0.10" (s (E.Json.float 2 0.1));
  check_string "four digits" "0.7500" (s (E.Json.float 4 0.75));
  check_string "no digits" "1235" (s (E.Json.float 0 1234.56));
  check_string "flat object on one line" {|{"a": 1, "b": true, "c": "x"}|}
    (s (E.Json.Obj [ ("a", E.Json.Int 1); ("b", E.Json.Bool true); ("c", E.Json.String "x") ]));
  check_string "nested container indented" "{\n  \"l\": [1, 2],\n  \"e\": []\n}"
    (s (E.Json.Obj [ ("l", E.Json.list (fun i -> E.Json.Int i) [ 1; 2 ]); ("e", E.Json.List []) ]))

(* A sweep table's cells are the literals its JSON file holds. *)
let test_report_of_json () =
  let row shape polls ratio =
    E.Json.(Obj [ ("shape", String shape); ("polls", Int polls); ("ratio", float 3 ratio);
                  ("report", Obj [ ("kept", Int 1); ("cold", List [ Int 2 ]) ]) ])
  in
  let t =
    E.Report.of_json ~title:"t" ~keys:[ "shape"; "polls"; "ratio"; "report" ]
      [ row "star" 171 0.5; row "tree2" (-3) 0.125 ]
  in
  Alcotest.(check (list string)) "columns are the keys" [ "shape"; "polls"; "ratio"; "report" ]
    t.E.Report.columns;
  Alcotest.(check (list (list string)))
    "cells"
    [
      [ "star"; "171"; "0.500"; {|{"kept": 1, "cold": [2]}|} ];
      [ "tree2"; "-3"; "0.125"; {|{"kept": 1, "cold": [2]}|} ];
    ]
    t.E.Report.rows;
  check_bool "missing key raises" true
    (match E.Report.of_json ~title:"t" ~keys:[ "shape"; "absent" ] [ row "star" 1 0.0 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_percentile () =
  let pct = Ldap_sweeps.Common.percentile ~empty:0 in
  check_int "empty" 0 (pct [||] 0.5);
  check_bool "empty float" true (Ldap_sweeps.Common.percentile ~empty:0.0 [||] 0.99 = 0.0);
  List.iter (fun p -> check_int "single sample" 7 (pct [| 7 |] p)) [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  let known = [| 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 |] in
  List.iter
    (fun (p, want) -> check_int (Printf.sprintf "p=%g" p) want (pct known p))
    [ (0.0, 3); (0.5, 34); (0.9, 144); (0.99, 233); (1.0, 233) ]

(* [ldapctl experiment NAME] accepts exactly [Figures.experiment_names]
   (plus "all"), and [Figures.all] runs that same list in order. *)
let test_experiment_table () =
  Alcotest.(check (list string))
    "names, in print order"
    [
      "table1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "location"; "consistency"; "rootbase"; "evolution"; "ablation"; "lossy";
      "overhead";
    ]
    E.Figures.experiment_names;
  check_bool "unknown name rejected" true
    (match E.Figures.run ~quick:true [ "no-such-table" ] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_department_fleet () =
  let ent = (Lazy.force scenario).E.Scenario.enterprise in
  let fleet = E.Scenario.fleet ~nodes:3 ~filters:7 ent in
  check_int "filters" 7 (Array.length fleet.E.Scenario.queries);
  check_int "nodes" 3 (Array.length fleet.E.Scenario.covers);
  check_bool "covers split round-robin" true
    (List.map List.length (Array.to_list fleet.E.Scenario.covers) = [ 3; 2; 2 ]
    && List.nth fleet.E.Scenario.covers.(1) 1 == fleet.E.Scenario.queries.(4));
  check_bool "leaf slots" true
    (E.Scenario.leaf_slot fleet 9 = (2, 2) && E.Scenario.leaf_slot fleet 10 = (3, 0));
  check_bool "leaf queries round-robin" true
    (List.nth (E.Scenario.leaf_queries fleet 8) 7 == fleet.E.Scenario.queries.(0));
  let one = E.Scenario.fleet ~filters:2 ~nodes:5 ent in
  check_int "nodes capped at filters" 2 (Array.length one.E.Scenario.covers)

let suite =
  [
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "experiment table" `Quick test_experiment_table;
    Alcotest.test_case "department fleet" `Quick test_department_fleet;
    Alcotest.test_case "report format" `Quick test_report_format;
    Alcotest.test_case "report of json rows" `Quick test_report_of_json;
    Alcotest.test_case "plot render" `Quick test_plot_render;
    Alcotest.test_case "figure4 shape" `Slow test_figure4_shape;
    Alcotest.test_case "figure8 shape" `Slow test_figure8_shape;
    Alcotest.test_case "figure9 shape" `Slow test_figure9_shape;
    Alcotest.test_case "ablation shape" `Slow test_ablation_shape;
    Alcotest.test_case "overhead linear" `Slow test_overhead_linear;
  ]
