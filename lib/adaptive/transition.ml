open Ldap
module C = Ldap_containment
module FR = Ldap_replication.Filter_replica

type step =
  | Keep of Query.t
  | Rescope of { query : Query.t; donor : Query.t }
  | Seed of { query : Query.t; donors : Query.t list }
  | Fetch of Query.t

type plan = { steps : step list; removes : Query.t list }

(* Could entries under [a] also lie under [b]?  A cheap pre-filter for
   donor selection: sound to get wrong in either direction — a useless
   donor seeds nothing and the Merkle walk repairs, a missed donor
   just costs a colder install. *)
let may_overlap schema a b =
  (Query.region_subset ~inner:a ~outer:b
  || Query.region_subset ~inner:b ~outer:a
  || Query.in_scope a b.Query.base
  || Query.in_scope b a.Query.base)
  && not (C.Filter_containment.disjoint schema a.Query.filter b.Query.filter)

let classify schema current q =
  if List.exists (Query.equal q) current then Keep q
  else
    match
      List.find_opt
        (fun cur -> C.Query_containment.contained schema ~query:q ~stored:cur)
        current
    with
    | Some donor -> Rescope { query = q; donor }
    | None -> (
        match List.filter (may_overlap schema q) current with
        | [] -> Fetch q
        | donors -> Seed { query = q; donors })

let plan schema ~current ~target =
  let steps = List.map (classify schema current) target in
  let removes =
    List.filter (fun cur -> not (List.exists (Query.equal cur) target)) current
  in
  { steps; removes }

let step_query = function
  | Keep q | Fetch q -> q
  | Rescope { query; _ } | Seed { query; _ } -> query

type report = {
  kept : int;
  rescoped : int;
  seeded : int;
  cold : int;
  removed : int;
  failed : int;
}

let empty_report =
  { kept = 0; rescoped = 0; seeded = 0; cold = 0; removed = 0; failed = 0 }

let add_report a b =
  {
    kept = a.kept + b.kept;
    rescoped = a.rescoped + b.rescoped;
    seeded = a.seeded + b.seeded;
    cold = a.cold + b.cold;
    removed = a.removed + b.removed;
    failed = a.failed + b.failed;
  }

let count_how r = function
  | FR.Kept -> { r with kept = r.kept + 1 }
  | FR.Rescoped -> { r with rescoped = r.rescoped + 1 }
  | FR.Seeded -> { r with seeded = r.seeded + 1 }
  | FR.Cold -> { r with cold = r.cold + 1 }

let apply replica plan =
  (* Installs run before removals so every donor named by the plan is
     still stored (and still synchronized) while its beneficiaries
     seed from it; only then does the retained-content window close. *)
  let r =
    List.fold_left
      (fun r step ->
        match step with
        | Keep _ -> { r with kept = r.kept + 1 }
        | Rescope { query; donor } -> (
            match FR.install_filter_rescoped replica query ~donor with
            | Ok how -> count_how r how
            | Error _ -> { r with failed = r.failed + 1 })
        | Seed { query; donors } -> (
            match FR.install_filter_seeded replica query ~donors with
            | Ok how -> count_how r how
            | Error _ -> { r with failed = r.failed + 1 })
        | Fetch q -> (
            match FR.install_filter replica q with
            | Ok () -> { r with cold = r.cold + 1 }
            | Error _ -> { r with failed = r.failed + 1 }))
      empty_report plan.steps
  in
  List.iter (FR.remove_filter replica) plan.removes;
  { r with removed = List.length plan.removes }

let apply_fetch replica plan =
  let fetch = function Keep _ as s -> s | s -> Fetch (step_query s) in
  apply replica { plan with steps = List.map fetch plan.steps }

let apply_cold replica plan =
  (* The blunt remove+install baseline the sweep compares against:
     tear down the entire current set — retained regions included —
     then fetch every target from scratch.  This is what a
     non-delta-aware replica does on re-selection, and what the delta
     planner's retained/rescoped regions save. *)
  let kept_current =
    List.filter_map (function Keep q -> Some q | _ -> None) plan.steps
  in
  List.iter (FR.remove_filter replica) (plan.removes @ kept_current);
  let r =
    List.fold_left
      (fun r step ->
        match FR.install_filter replica (step_query step) with
        | Ok () -> { r with cold = r.cold + 1 }
        | Error _ -> { r with failed = r.failed + 1 })
      empty_report plan.steps
  in
  { r with removed = List.length plan.removes + List.length kept_current }

let report_to_string r =
  Printf.sprintf "kept=%d rescoped=%d seeded=%d cold=%d removed=%d failed=%d"
    r.kept r.rescoped r.seeded r.cold r.removed r.failed
