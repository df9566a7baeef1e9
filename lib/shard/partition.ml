open Ldap
module Symbolic = Ldap_containment.Symbolic

let structural_shard = 0

(* One staged cover plan per filter shape: for each shard, the
   compiled "provably holds no answer" condition ([None] when
   compilation was infeasible — that shard is then always contacted). *)
type plan = Symbolic.Compiled.cond option array

type t = {
  shards : int;
  prefix_len : int;
  block_geos : Dn.t option array;
  block_shard : int array;
  by_prefix : (string, int) Hashtbl.t;  (* normalized prefix -> block index *)
  shard_blocks : string list array;
  skip_rhs : Filter.normal array;
      (* Skip shard [s] iff query ⊆ skip_rhs.(s): for s > 0 that is
         ¬(blocks of s); for shard 0 it is the union of every OTHER
         shard's blocks (structural and unknown-block entries live at
         shard 0, so only a query provably confined to other shards'
         blocks can skip it). *)
  owns : Filter.normal array;  (* [ownership_filter], per shard *)
  owns_prog : Ldap_compile.Prog.t array;  (* each [owns] compiled once *)
  plans : (int, plan) Hashtbl.t;  (* shape id -> plan *)
  mutable hits : int;
  mutable misses : int;
}

(* The partition-key attribute. *)
let attr = "serialnumber"

let norm_prefix p = Value.normalize (Schema.syntax_of attr) p

let block_filter prefix =
  Filter.Pred
    (Filter.Substrings (attr, { initial = Some prefix; any = []; final = None }))

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
  let block_shard = Array.init n (fun i -> i mod shards) in
  let by_prefix = Hashtbl.create (2 * n) in
  let shard_blocks = Array.make shards [] in
  Array.iteri
    (fun i (p, _) ->
      let key = norm_prefix p in
      if Hashtbl.mem by_prefix key then
        invalid_arg "Partition.create: duplicate block prefix";
      Hashtbl.replace by_prefix key i;
      let s = block_shard.(i) in
      shard_blocks.(s) <- shard_blocks.(s) @ [ p ])
    blocks;
  let union ps = Filter.normalize (Filter.Or (List.map block_filter ps)) in
  let skip_rhs =
    Array.init shards (fun s ->
        if s = structural_shard then union (List.concat (List.tl (Array.to_list shard_blocks)))
        else Filter.negate (union shard_blocks.(s)))
  in
  let owns =
    Array.init shards (fun s ->
        if s = structural_shard then
          (* Everything not provably another shard's: shard 0's own
             blocks, structural entries (no key at all) and keys in
             no known block all live here — exactly the complement of
             skip_rhs.(0). *)
          Filter.negate skip_rhs.(0)
        else union shard_blocks.(s))
  in
  {
    shards;
    prefix_len;
    block_geos = Array.map snd blocks;
    block_shard;
    by_prefix;
    shard_blocks;
    skip_rhs;
    owns;
    owns_prog = Array.map (fun (f : Filter.normal) -> Filter.compile (f :> Filter.t)) owns;
    plans = Hashtbl.create 16;
    hits = 0;
    misses = 0;
  }

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

let ownership_filter t s = t.owns.(s)

let restrict t s q = Query.conjoin q t.owns.(s) t.owns_prog.(s)

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

let plan_for t key (f : Filter.normal) =
  match Hashtbl.find_opt t.plans key with
  | Some p ->
      t.hits <- t.hits + 1;
      p
  | None ->
      t.misses <- t.misses + 1;
      let tmpl = Template.of_filter f in
      let p =
        Array.init t.shards (fun s ->
            match
              Symbolic.compile ~left:tmpl
                ~right:(Template.constant t.skip_rhs.(s))
            with
            | None -> None
            | Some cond -> Some (Symbolic.Compiled.compile cond))
      in
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
  let key, values = Query.shape q in
  let plan = plan_for t key q.filter in
  let geo = if use_geo then geo_cover t q else None in
  assemble t ~geo ~skip:(fun s ->
      match plan.(s) with
      | Some cond -> Symbolic.Compiled.eval cond ~left:values ~right:[||]
      | None -> false)

let cover_uncached ?(use_geo = true) t (q : Query.t) =
  let geo = if use_geo then geo_cover t q else None in
  assemble t ~geo ~skip:(fun s ->
      (not (empty_shard t s)) && Symbolic.contained q.filter t.skip_rhs.(s))

let plan_hits t = t.hits
let plan_misses t = t.misses
