open Ldap
module R = Ldap_replication
module Generalize = Ldap_selection.Generalize

type config = {
  rules : Generalize.rule list;
  size_budget : int;
  ageing : float;
  swap_margin : float;
  include_queries : bool;
}

type info = { query : Query.t; mutable benefit : float; mutable size : int option }

type t = {
  config : config;
  replica : R.Filter_replica.t;
  table : info Interest.Tbl.t;
  infos : info Queue.t;  (* first-observation order *)
  mutable swaps : int;
}

let create config replica =
  { config; replica; table = Interest.Tbl.create 64; infos = Queue.create (); swaps = 0 }

let size_of t info =
  match info.size with
  | Some n -> n
  | None ->
      let n = max 1 (R.Filter_replica.estimate_size t.replica info.query) in
      info.size <- Some n;
      n

let age t = Queue.iter (fun i -> i.benefit <- i.benefit *. t.config.ageing) t.infos

let bump t q =
  match Interest.Tbl.find_opt t.table q with
  | Some i -> i.benefit <- i.benefit +. 1.0
  | None ->
      let i = { query = q; benefit = 1.0; size = None } in
      Interest.Tbl.replace t.table q i;
      Queue.add i t.infos

let stored_infos t =
  let stored = R.Filter_replica.stored_filters t.replica in
  List.filter_map (Interest.Tbl.find_opt t.table) stored

let weakest_actual t =
  match stored_infos t with
  | [] -> None
  | infos ->
      Some
        (List.fold_left
           (fun worst i ->
             let ratio i = i.benefit /. float_of_int (size_of t i) in
             if ratio i < ratio worst then i else worst)
           (List.hd infos) (List.tl infos))

let used_budget t =
  List.fold_left (fun acc i -> acc + size_of t i) 0 (stored_infos t)

(* Immediate evolution: swap the best non-stored candidate in if it
   beats the weakest stored filter by the margin. *)
let try_evolve t =
  let stored = R.Filter_replica.stored_filters t.replica in
  let is_stored q = List.exists (Query.equal q) stored in
  let best_candidate =
    Queue.fold
      (fun best i ->
        if is_stored i.query then best
        else
          let ratio = i.benefit /. float_of_int (size_of t i) in
          match best with
          | Some (_, r) when r >= ratio -> best
          | _ -> Some (i, ratio))
      None t.infos
  in
  match best_candidate with
  | None -> ()
  | Some (candidate, cand_ratio) -> (
      let fits_fresh =
        used_budget t + size_of t candidate <= t.config.size_budget
      in
      if fits_fresh && cand_ratio > 0.0 then begin
        match R.Filter_replica.install_filter t.replica candidate.query with
        | Ok () -> t.swaps <- t.swaps + 1
        | Error _ -> ()
      end
      else
        match weakest_actual t with
        | Some weakest
          when cand_ratio
               > (weakest.benefit /. float_of_int (size_of t weakest))
                 *. (1.0 +. t.config.swap_margin) ->
            R.Filter_replica.remove_filter t.replica weakest.query;
            if used_budget t + size_of t candidate <= t.config.size_budget then begin
              match R.Filter_replica.install_filter t.replica candidate.query with
              | Ok () -> t.swaps <- t.swaps + 1
              | Error _ -> ()
            end
        | Some _ | None -> ())

let observe t q =
  age t;
  let gens = Generalize.candidates t.config.rules q in
  let gens = if t.config.include_queries then q :: gens else gens in
  List.iter (bump t) gens;
  try_evolve t

let swaps t = t.swaps
