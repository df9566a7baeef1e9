type verdict = Better | Worse | Within | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within"
  | Unresolved -> "unresolved"

(* Positive when [b] reads worse than [a]. *)
let worsening ~lower_is_better a b = if lower_is_better then b -. a else a -. b

let rel_spread xs =
  let q1, med, q3 = Stats.quartiles xs in
  if med = 0.0 then q3 -. q1 else (q3 -. q1) /. Float.abs med

let count_wins ~lower_is_better parent change =
  let rec go w p a b =
    match (a, b) with
    | x :: a, y :: b -> go (if worsening ~lower_is_better x y < 0.0 then w + 1 else w) (p + 1) a b
    | _ -> (w, p)
  in
  go 0 0 parent change

let verdict ~lower_is_better ~bound parent change =
  if parent = [] || change = [] then invalid_arg "Compare.verdict: empty side";
  let q1a, med_a, q3a = Stats.quartiles parent in
  let med_b = Stats.median change in
  let rel = worsening ~lower_is_better med_a med_b /. Float.abs (if med_a = 0.0 then 1.0 else med_a) in
  let wins, pairs = count_wins ~lower_is_better parent change in
  let lo l = List.fold_left Float.min Float.infinity l in
  let hi l = List.fold_left Float.max Float.neg_infinity l in
  let disjoint =
    (* Every change run on one side of every parent run. *)
    hi change < lo parent || lo change > hi parent
  in
  if rel < 0.0 && pairs > 0 && wins * 10 >= pairs * 9 && Float.abs (med_b -. med_a) > q3a -. q1a
  then Better
  else if Float.max (rel_spread parent) (rel_spread change) > bound && not disjoint then
    Unresolved
  else if rel > bound then Worse
  else Within

type bound = { metric : string; lower_is_better : bool; bound : float }

let bounds bench =
  match Json.member "end_to_end" bench with
  | Some (Json.Arr items) ->
      let parse item =
        match
          ( Json.member "name" item,
            Json.member "better" item,
            Json.member "bound" item )
        with
        | Some (Json.Str metric), Some (Json.Str better), Some (Json.Num bound) ->
            Some { metric; lower_is_better = better = "lower"; bound }
        | _ -> None
      in
      let parsed = List.filter_map parse items in
      if List.length parsed = List.length items then Ok parsed
      else Error "BENCHMARK.json: malformed end_to_end entry"
  | _ -> Error "BENCHMARK.json: no end_to_end list"

type run = { workload : string; seed : int; values : (string * float) list }

let run_of_json j =
  match (Json.member "workload" j, Json.member "seed" j, Json.member "metrics" j) with
  | Some (Json.Str workload), Some (Json.Num seed), Some (Json.Obj metrics) ->
      let values =
        List.filter_map
          (fun (k, v) ->
            match Json.member "value" v with Some (Json.Num x) -> Some (k, x) | _ -> None)
          metrics
      in
      Some { workload; seed = int_of_float seed; values }
  | _ -> None

let read_ledger path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line when String.trim line = "" -> go acc (lineno + 1)
        | line -> (
            match Json.parse line with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
            | Ok j -> (
                match run_of_json j with
                | Some r -> go (r :: acc) (lineno + 1)
                | None -> Error (Printf.sprintf "%s:%d: not a run record" path lineno)))
      in
      let r = go [] 1 in
      close_in ic;
      r

type row = {
  workload : string;
  metric : string;
  parent : float list;
  change : float list;
  wins : int;
  pairs : int;
  result : verdict;
}

(* Values of one metric for one workload, ordered by seed (stable, so
   repeated seeds keep file order) — the pairing key. *)
let series runs ~workload ~metric =
  runs
  |> List.filter (fun (r : run) -> String.equal r.workload workload)
  |> List.stable_sort (fun (a : run) (b : run) -> compare a.seed b.seed)
  |> List.filter_map (fun (r : run) -> List.assoc_opt metric r.values)

let rows bounds parent change =
  let workloads =
    List.sort_uniq compare (List.map (fun (r : run) -> r.workload) parent)
    |> List.filter (fun w -> List.exists (fun (r : run) -> String.equal r.workload w) change)
  in
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (b : bound) ->
          let p = series parent ~workload ~metric:b.metric in
          let c = series change ~workload ~metric:b.metric in
          if p = [] || c = [] then None
          else
            let wins, pairs = count_wins ~lower_is_better:b.lower_is_better p c in
            Some
              {
                workload;
                metric = b.metric;
                parent = p;
                change = c;
                wins;
                pairs;
                result =
                  verdict ~lower_is_better:b.lower_is_better ~bound:b.bound p c;
              })
        bounds)
    workloads

let print bounds rows =
  Printf.printf "%-13s %-18s %33s %33s %8s %6s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "bound" "wins" "verdict";
  List.iter
    (fun r ->
      let b = List.find (fun (b : bound) -> String.equal b.metric r.metric) bounds in
      let q1a, ma, q3a = Stats.quartiles r.parent in
      let q1b, mb, q3b = Stats.quartiles r.change in
      let show m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
      Printf.printf "%-13s %-18s %33s %33s %+7.1f%% %5.0f%% %3d/%-2d  %s\n" r.workload r.metric
        (show ma q1a q3a) (show mb q1b q3b)
        (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
        (100.0 *. b.bound) r.wins r.pairs (verdict_to_string r.result))
    rows
