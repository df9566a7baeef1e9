open Ldap
module C = Ldap_containment
module FR = Ldap_replication.Filter_replica
module Generalize = Ldap_selection.Generalize

type mode = Delta | Cold_swap | Fetch
type benefit = Hits | Decayed
type trigger = Periodic | Drift

type config = {
  rules : Generalize.rule list;
  include_queries : bool;
  benefit : benefit;
  half_life : int;
  min_score : float;
  size_budget : int;
  revolution_interval : int;
  drift_check_interval : int;
  drift_ratio : float;
  mode : mode;
}

let default_config =
  {
    rules = [];
    include_queries = true;
    benefit = Decayed;
    half_life = 256;
    min_score = 1.0;
    size_budget = 1000;
    revolution_interval = 200;
    drift_check_interval = 25;
    drift_ratio = 2.0;
    mode = Delta;
  }

type adaptation = {
  at : int;
  trigger : trigger;
  target : Query.t list;
  plan : Transition.plan;
  report : Transition.report;
}

type t = {
  config : config;
  replica : FR.t;
  interest : Interest.t;
  coverage : bool Query.Tbl.t;
      (* candidate -> whether the stored set covers it, proved at
         replica generation [coverage_at] *)
  mutable coverage_at : int;
  mutable observed : int;
  mutable adaptations : adaptation list;  (* newest first *)
  mutable adaptation_count : int;  (* length of [adaptations] *)
  mutable drift_checks : int;
  mutable unchanged_checks : int;
}

let create config replica =
  {
    config;
    replica;
    interest =
      (match config.benefit with
      | Hits -> Interest.create ()
      | Decayed -> Interest.create ~half_life:config.half_life ());
    coverage = Query.Tbl.create 256;
    coverage_at = FR.generation replica;
    observed = 0;
    adaptations = [];
    adaptation_count = 0;
    drift_checks = 0;
    unchanged_checks = 0;
  }

let replica t = t.replica
let adaptations t = List.rev t.adaptations
let adaptation_count t = t.adaptation_count
let drift_checks t = t.drift_checks
let unchanged_checks t = t.unchanged_checks

let totals t =
  List.fold_left
    (fun acc a -> Transition.add_report acc a.report)
    Transition.empty_report t.adaptations

let covered stored q =
  List.exists
    (fun s -> C.Query_containment.contained ~query:q ~stored:s)
    stored

(* Greedy benefit/size selection under the size budget, the section
   6.2 shape.  Sizes are asked of the upstream estimator fresh at every
   selection: a cached price drifts as the directory churns.  Among
   equal ratios the earlier-observed candidate comes first: the fold
   visits candidates in first-observation order and the sort is
   stable.  Under [Hits] a candidate an earlier pick contains is still
   picked, as in the paper; under [Decayed] it is free and skipped. *)
let select t =
  let paper = t.config.benefit = Hits in
  let priced =
    Interest.fold t.interest ~init:[] ~f:(fun acc q score ->
        if score < t.config.min_score then acc
        else
          let size = max 1 (FR.estimate_size t.replica q) in
          (q, score /. float_of_int size, size) :: acc)
  in
  let priced =
    List.stable_sort (fun (_, ra, _) (_, rb, _) -> Float.compare rb ra) (List.rev priced)
  in
  (* The budget test comes first: it is one comparison, and a
     candidate that does not fit is skipped whether or not a picked
     filter covers it, so it needs no containment proof. *)
  let picked, _ =
    List.fold_left
      (fun (picked, used) (q, _, size) ->
        if used + size > t.config.size_budget || ((not paper) && covered picked q)
        then (picked, used)
        else (q :: picked, used + size))
      ([], 0) priced
  in
  List.rev picked

let same_set a b =
  List.length a = List.length b
  && List.for_all (fun q -> List.exists (Query.equal q) b) a

let adapt t ~trigger =
  let target = select t in
  if t.config.benefit = Hits then Interest.reset t.interest;
  let current = FR.stored_filters t.replica in
  if same_set current target then begin
    t.unchanged_checks <- t.unchanged_checks + 1;
    None
  end
  else begin
    let plan = Transition.plan ~current ~target in
    let report =
      match t.config.mode with
      | Delta -> Transition.apply t.replica plan
      | Cold_swap -> Transition.apply_cold t.replica plan
      | Fetch -> Transition.apply_fetch t.replica plan
    in
    let a = { at = t.observed; trigger; target; plan; report } in
    t.adaptations <- a :: t.adaptations;
    t.adaptation_count <- t.adaptation_count + 1;
    Some a
  end

(* Whether the stored set covers [q].  The answer changes only when
   the stored set does, so it is proved once per replica generation,
   through the replica's containment index, and memoized. *)
let stored_covers t q =
  let generation = FR.generation t.replica in
  if generation <> t.coverage_at then begin
    Query.Tbl.clear t.coverage;
    t.coverage_at <- generation
  end;
  match Query.Tbl.find_opt t.coverage q with
  | Some c -> c
  | None ->
      let c = FR.covers t.replica q in
      Query.Tbl.add t.coverage q c;
      c

(* Early re-selection fires when some uncovered candidate's score
   dominates the best candidate the stored set already covers — the
   flash-crowd / geography-flip signal that should not wait for the
   periodic revolution.  One pass over the table takes both maxima (a
   kind with no viable candidate, or a best score below zero, counts
   as 0.0). *)
let drifted t =
  let min_score = t.config.min_score in
  let best_uncovered, best_covered =
    Interest.fold t.interest ~init:(0.0, 0.0) ~f:(fun ((bu, bc) as acc) q score ->
        if score < min_score then acc
        else if stored_covers t q then if score > bc then (bu, score) else acc
        else if score > bu then (score, bc)
        else acc)
  in
  best_uncovered >= min_score && best_uncovered > t.config.drift_ratio *. best_covered

let observe t q =
  let candidates = Generalize.candidates t.config.rules q in
  let candidates = if t.config.include_queries then q :: candidates else candidates in
  (match candidates with
  | [] -> Interest.touch t.interest
  | cs -> List.iter (Interest.observe t.interest) cs);
  t.observed <- t.observed + 1;
  let due every = every > 0 && t.observed mod every = 0 in
  if due t.config.drift_check_interval then begin
    t.drift_checks <- t.drift_checks + 1;
    if drifted t then ignore (adapt t ~trigger:Drift)
    else if due t.config.revolution_interval then
      ignore (adapt t ~trigger:Periodic)
  end
  else if due t.config.revolution_interval then
    ignore (adapt t ~trigger:Periodic)

let mode_to_string = function
  | Delta -> "delta"
  | Cold_swap -> "cold-swap"
  | Fetch -> "fetch"
