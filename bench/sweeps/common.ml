(* What several sweeps share: the directory and link settings of the
   tree-fanout, latency, crash/restart and anti-entropy sweeps, the
   percentile rule, the commit-to-ack staleness match, the crash and
   recovery helpers, and the table every sweep prints its JSON rows
   as. *)
open Ldap
module D = Ldap_dirgen
module Json = Ldap_eval.Json
module Topology = Ldap_topology.Topology
module Leaf = Ldap_topology.Leaf
module Node = Ldap_topology.Node

(* Seeds the directory of the tree-fanout, latency, crash/restart and
   anti-entropy sweeps; offsets from it seed the update stream (+1),
   the engine (+2), the fault rolls (+3) and the corruption trials
   (+5). *)
let seed = 7

(* Uniform per-link latency bounds, virtual ticks. *)
let link_lo = 2
let link_hi = 8

(* Virtual ticks between committed updates (latency, crash/restart). *)
let update_every = 20

(* Fraction of leaves crashed (at least one) and virtual ticks between
   a leaf's polls, in the crash/restart and anti-entropy sweeps. *)
let crash_fraction = 0.25
let crash_poll_every = 40

let enterprise_config ~employees =
  {
    D.Enterprise.default_config with
    seed;
    employees;
    countries = 4;
    divisions = 4;
    departments_per_division = 12;
    locations = 8;
    target_countries = 2;
  }

let enterprise ~employees = D.Enterprise.build (enterprise_config ~employees)

let upstream_bytes (s : Ldap_replication.Stats.t) =
  s.sync_bytes + s.fetch_bytes + s.merkle_bytes

let shape_name = function
  | Topology.Star -> "star"
  | Topology.Chain n -> Printf.sprintf "chain%d" n
  | Topology.Tree { arity } -> Printf.sprintf "tree%d" arity

(* The sample at index [round (p * (n - 1))] (capped at [n - 1]) of an
   ascending array of [n] samples, or [empty] when [n = 0]: p = 0.5 is
   the median and p = 1 the maximum. *)
let percentile ~empty sorted p =
  let n = Array.length sorted in
  if n = 0 then empty
  else sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

(* p50, p90, p99 and max of integer samples. *)
let summarize samples =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  let pct = percentile ~empty:0 arr in
  (pct 0.5, pct 0.9, pct 0.99, pct 1.0)

(* Rounded to a tick; 0 for no samples. *)
let mean = function
  | [] -> 0
  | l ->
      int_of_float
        (Float.round (float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)))

(* From here on, exchanges over [t]'s network cost per-link latency in
   virtual time. *)
let clock t ~seed ~lo ~hi =
  let engine = Ldap_sim.Engine.create ~seed () in
  let net = Topology.network t in
  Network.attach_engine net engine;
  Network.set_default_latency net (Ldap_sim.Latency.Uniform { lo; hi });
  engine

(* Per-leaf acknowledgement log, newest first: a completed poll that
   advances a leaf's acknowledged CSN records (CSN, finish time). *)
let record_ack log leaf ~finish =
  let name = Leaf.name leaf in
  let csn = Csn.to_int (Leaf.acked_csn leaf) in
  match Hashtbl.find_opt log name with
  | Some ((last, _) :: _) when csn <= last -> ()
  | past -> Hashtbl.replace log name ((csn, finish) :: Option.value ~default:[] past)

(* Commit-to-leaf staleness: for each committed update (CSN, commit
   time, oldest first) and each leaf, the virtual time from commit
   until the leaf first acknowledged a CSN at or past the update's.
   Pairs never covered within the horizon are counted censored rather
   than sampled.  Returns (samples, censored). *)
let staleness log ~updates leaves =
  let samples = ref [] and censored = ref 0 in
  List.iter
    (fun leaf ->
      let rec go updates acks =
        match (updates, acks) with
        | [], _ -> ()
        | rest, [] -> censored := !censored + List.length rest
        | (u_csn, u_t) :: urest, ((a_csn, a_t) :: _ as acks) ->
            if a_csn >= u_csn then begin
              samples := (a_t - u_t) :: !samples;
              go urest acks
            end
            else go updates (List.tl acks)
      in
      go updates
        (List.rev (Option.value ~default:[] (Hashtbl.find_opt log (Leaf.name leaf)))))
    leaves;
  (!samples, !censored)

(* The first [round (fraction * consumers)] leaves (at least one), by
   the builders' leaf naming (leaf1, leaf2, ...). *)
let crashed_leaves ~fraction ~consumers =
  let n = max 1 (int_of_float (Float.round (fraction *. float_of_int consumers))) in
  List.init n (fun i -> Printf.sprintf "leaf%d" (i + 1))

(* Polls [t] to the horizon and returns, per [affected] leaf that
   converged, the virtual time from [restart_time] to its first
   completed poll matching the root. *)
let recovery_ticks t engine ~affected ~restart_time ~poll_every ~until =
  let recovered_at = Hashtbl.create 8 in
  let on_leaf_poll leaf ~start:_ ~finish =
    let name = Leaf.name leaf in
    if
      List.mem name affected && finish >= restart_time
      && not (Hashtbl.mem recovered_at name)
      && Topology.leaf_converged t leaf
    then Hashtbl.replace recovered_at name finish
  in
  Topology.drive_events ~on_leaf_poll t engine ~poll_every ~until;
  Ldap_sim.Engine.run engine;
  List.filter_map
    (fun name -> Option.map (fun at -> at - restart_time) (Hashtbl.find_opt recovered_at name))
    affected

(* Every sweep table is drawn from the JSON rows the sweep writes: the
   columns are member names, the cells the literals the file holds. *)
let print_table ~title ~notes keys rows =
  Ldap_eval.Report.print (Ldap_eval.Report.of_json ~title ~notes ~keys rows)

(* A row's label that its object lacks, as a leading member. *)
let labelled key label = function
  | Json.Obj members -> Json.Obj ((key, Json.String label) :: members)
  | _ -> invalid_arg "labelled: not an object"
