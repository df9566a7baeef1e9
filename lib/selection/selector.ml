open Ldap
module R = Ldap_replication

type config = {
  rules : Generalize.rule list;
  revolution_interval : int;
  size_budget : int;
  min_hits : int;
  include_queries : bool;
}

type t = {
  config : config;
  replica : R.Filter_replica.t;
  candidates : Candidate.t;
  mutable since_revolution : int;
  mutable revolutions : int;
  mutable failed_installs : int;
}

let create config replica =
  {
    config;
    replica;
    candidates = Candidate.create ();
    since_revolution = 0;
    revolutions = 0;
    failed_installs = 0;
  }

let estimate t q = R.Filter_replica.estimate_size t.replica q

(* Greedy selection under the size budget, best benefit/size first. *)
let select t =
  let ranked = Candidate.ranked t.candidates ~estimate:(estimate t) in
  let budget = t.config.size_budget in
  let chosen, _ =
    List.fold_left
      (fun (chosen, used) (q, (s : Candidate.stats), _) ->
        if s.Candidate.hits < t.config.min_hits then (chosen, used)
        else
          let size = Candidate.size_of t.candidates q ~estimate:(estimate t) in
          if used + size <= budget && size > 0 then (q :: chosen, used + size)
          else (chosen, used))
      ([], 0) ranked
  in
  chosen

let revolution t =
  t.revolutions <- t.revolutions + 1;
  (* Size estimates age across the interval as the directory churns;
     re-price every candidate before re-choosing. *)
  Candidate.invalidate_sizes t.candidates;
  let chosen = select t in
  let stored = R.Filter_replica.stored_filters t.replica in
  let keep q = List.exists (Query.equal q) chosen in
  List.iter (fun q -> if not (keep q) then R.Filter_replica.remove_filter t.replica q) stored;
  List.iter
    (fun q ->
      if not (List.exists (Query.equal q) stored) then
        match R.Filter_replica.install_filter t.replica q with
        | Ok () -> ()
        | Error _ ->
            (* Unsatisfiable or failed fetch: the candidate will be
               re-ranked next interval, but the miss is counted — a
               replica that keeps failing its installs looks exactly
               like one that chose badly unless the report says so. *)
            t.failed_installs <- t.failed_installs + 1)
    chosen;
  Candidate.reset_hits t.candidates

let observe t q =
  let gens = Generalize.candidates t.config.rules q in
  let gens = if t.config.include_queries then q :: gens else gens in
  List.iter (Candidate.observe t.candidates) gens;
  t.since_revolution <- t.since_revolution + 1;
  if t.since_revolution >= t.config.revolution_interval then begin
    t.since_revolution <- 0;
    revolution t
  end

let force_revolution t = revolution t

let schedule_revolutions t engine ~every ~until =
  Ldap_sim.Engine.every engine ~every ~until (fun () ->
      t.since_revolution <- 0;
      revolution t)
let revolutions t = t.revolutions

let install_static replica queries =
  List.fold_left
    (fun acc q ->
      match acc with
      | Error _ as e -> e
      | Ok () -> R.Filter_replica.install_filter replica q)
    (Ok ()) queries
