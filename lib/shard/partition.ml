open Ldap
module Template = Ldap_containment.Template
module Symbolic = Ldap_containment.Symbolic

let structural_shard = 0

(* One staged cover plan per filter shape: for each shard, the
   compiled "provably holds no answer" condition ([None] when
   compilation was infeasible — that shard is then always contacted). *)
type plan = {
  pl_template : Template.t;
  pl_skip : Symbolic.Compiled.cond option array;
}

type t = {
  shards : int;
  prefix_len : int;
  block_geos : Dn.t option array;
  block_shard : int array;
  by_prefix : (string, int) Hashtbl.t;  (* normalized prefix -> block index *)
  shard_blocks : string list array;
  skip_rhs : Filter.t array;
      (* Skip shard [s] iff query ⊆ skip_rhs.(s): for s > 0 that is
         ¬(blocks of s); for shard 0 it is the union of every OTHER
         shard's blocks (structural and unknown-block entries live at
         shard 0, so only a query provably confined to other shards'
         blocks can skip it). *)
  plans : (string, plan) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

(* The partition-key attribute. *)
let attr = "serialnumber"

let norm_prefix p = Value.normalize (Schema.syntax_of attr) p

let block_filter prefix =
  Filter.Pred
    (Filter.Substrings (attr, { initial = Some prefix; any = []; final = None }))

let union_filter = function
  | [ p ] -> block_filter p
  | ps -> Filter.Or (List.map block_filter ps)

let create ~shards ~blocks =
  if shards < 1 then invalid_arg "Partition.create: shards < 1";
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Partition.create: no blocks";
  let prefix_len = String.length (fst blocks.(0)) in
  Array.iter
    (fun (p, _) ->
      if String.length p <> prefix_len then
        invalid_arg "Partition.create: block prefixes must share one width")
    blocks;
  let t =
    {
      shards;
      prefix_len;
      block_geos = Array.map snd blocks;
      block_shard = Array.init n (fun i -> i mod shards);
      by_prefix = Hashtbl.create (2 * n);
      shard_blocks = Array.make shards [];
      skip_rhs = Array.make shards Filter.tt;
      plans = Hashtbl.create 16;
      hits = 0;
      misses = 0;
    }
  in
  Array.iteri
    (fun i (p, _) ->
      let key = norm_prefix p in
      if Hashtbl.mem t.by_prefix key then
        invalid_arg "Partition.create: duplicate block prefix";
      Hashtbl.replace t.by_prefix key i;
      let s = t.block_shard.(i) in
      t.shard_blocks.(s) <- t.shard_blocks.(s) @ [ p ])
    blocks;
  for s = 0 to shards - 1 do
    if s = 0 then begin
      let others =
        List.concat
          (List.init (shards - 1) (fun k -> t.shard_blocks.(k + 1)))
      in
      t.skip_rhs.(0) <-
        (match others with [] -> Filter.Or [] | ps -> union_filter ps)
    end
    else
      t.skip_rhs.(s) <- Filter.Not (union_filter t.shard_blocks.(s))
  done;
  t

let of_enterprise ent ~shards =
  create ~shards
    ~blocks:
      (Array.map
         (fun (p, dn) -> (p, Some dn))
         (Ldap_dirgen.Enterprise.partition_blocks ent))

let shards t = t.shards
let blocks_of t s = t.shard_blocks.(s)
let is_structural e = Entry.get e attr = []

let block_of_value t v =
  if String.length v < t.prefix_len then None
  else Hashtbl.find_opt t.by_prefix (norm_prefix (String.sub v 0 t.prefix_len))

let of_serial t v =
  match block_of_value t v with
  | Some b -> t.block_shard.(b)
  | None -> structural_shard

let of_entry t e =
  match Entry.get e attr with
  | [] -> structural_shard
  | v :: _ -> of_serial t v

let geo_consistent t e =
  match Entry.get e attr with
  | [] -> true
  | v :: _ -> (
      match block_of_value t v with
      | None -> true (* unknown block: shard 0, never geography-pruned *)
      | Some b -> (
          match t.block_geos.(b) with
          | None -> true (* block opted out of geographic pruning *)
          | Some g -> Dn.ancestor_of ~strict:true g (Entry.dn e)))

let ownership_filter t s =
  if s = structural_shard then
    (* Everything not provably another shard's: shard 0's own blocks,
       structural entries (no key at all) and keys in no known block
       all live here — exactly the complement of skip_rhs.(0). *)
    Filter.Not t.skip_rhs.(0)
  else union_filter t.shard_blocks.(s)

let restrict t s (q : Query.t) =
  { q with filter = Filter.normalize (Filter.And [ ownership_filter t s; q.filter ]) }

(* Geographic pruning: when the query base sits inside some block's
   geography subtree, only shards owning a block whose geography
   covers the base (or whose geography is unknown) can hold answers.
   Shard 0 is never geography-pruned — structural entries span all
   geographies. *)
let geo_cover t (q : Query.t) =
  if Dn.is_root q.base then None
  else begin
    let keep = Array.make t.shards false in
    keep.(structural_shard) <- true;
    let anchored = ref false in
    Array.iteri
      (fun b geo ->
        match geo with
        | Some g when Dn.ancestor_of ~strict:false g q.base ->
            anchored := true;
            keep.(t.block_shard.(b)) <- true
        | Some _ -> ()
        | None -> keep.(t.block_shard.(b)) <- true)
      t.block_geos;
    if !anchored then Some keep else None
  end

(* Template with every assertion value constant: the skip conditions'
   right-hand sides are concrete filters, so their holes fold away at
   compile time and evaluating a plan needs only the query's values. *)
let rec const_template (f : Filter.t) : Template.t =
  match f with
  | Filter.And fs -> Template.And (List.map const_template fs)
  | Filter.Or fs -> Template.Or (List.map const_template fs)
  | Filter.Not g -> Template.Not (const_template g)
  | Filter.Pred p ->
      Template.Pred
        (match p with
        | Filter.Equality (a, v) -> Template.Equality (a, Template.Const v)
        | Filter.Greater_eq (a, v) -> Template.Greater_eq (a, Template.Const v)
        | Filter.Less_eq (a, v) -> Template.Less_eq (a, Template.Const v)
        | Filter.Present a -> Template.Present a
        | Filter.Approx (a, v) -> Template.Approx (a, Template.Const v)
        | Filter.Substrings (a, s) ->
            Template.Substrings
              ( a,
                Option.map (fun v -> Template.Const v) s.initial,
                List.map (fun v -> Template.Const v) s.any,
                Option.map (fun v -> Template.Const v) s.final ))

let plan_for t f =
  let tmpl = Template.of_filter f in
  let key = Template.shape_key tmpl in
  match Hashtbl.find_opt t.plans key with
  | Some p ->
      t.hits <- t.hits + 1;
      p
  | None ->
      t.misses <- t.misses + 1;
      let skip =
        Array.init t.shards (fun s ->
            match
              Symbolic.compile ~left:tmpl
                ~right:(const_template t.skip_rhs.(s))
            with
            | None -> None
            | Some cond -> Some (Symbolic.Compiled.compile cond))
      in
      let p = { pl_template = tmpl; pl_skip = skip } in
      Hashtbl.replace t.plans key p;
      p

let empty_shard t s = s > structural_shard && t.shard_blocks.(s) = []

let assemble t ~geo ~skip =
  let out = ref [] in
  for s = t.shards - 1 downto 0 do
    let geo_ok = match geo with None -> true | Some keep -> keep.(s) in
    if geo_ok && (not (empty_shard t s)) && not (skip s) then out := s :: !out
  done;
  !out

let cover ?(use_geo = true) t (q : Query.t) =
  let f = Filter.normalize q.filter in
  let plan = plan_for t f in
  let values = Template.match_filter plan.pl_template f in
  let geo = if use_geo then geo_cover t q else None in
  assemble t ~geo ~skip:(fun s ->
      match (values, plan.pl_skip.(s)) with
      | Some vs, Some cond -> Symbolic.Compiled.eval cond ~left:vs ~right:[||]
      | _ -> false)

let cover_uncached ?(use_geo = true) t (q : Query.t) =
  let f = Filter.normalize q.filter in
  let geo = if use_geo then geo_cover t q else None in
  assemble t ~geo ~skip:(fun s ->
      (not (empty_shard t s)) && Symbolic.contained f t.skip_rhs.(s))

let plan_hits t = t.hits
let plan_misses t = t.misses
