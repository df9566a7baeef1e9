open Ldap

type operand = L of int | R of int | C of string | Succ of operand

type atom =
  | Empty_range of {
      low : operand;
      low_strict : bool;
      high : operand;
      high_strict : bool;
    }
  | Equal of operand * operand
  | Point_excluded of { low : operand; high : operand; excl : operand }
  | Has_prefix of operand * operand

type cond_atom = { attr : string; atom : atom }
type clause = cond_atom list
type t = Always | Never | Cnf of clause list

(* --- Symbolic predicates and literals ------------------------------- *)

type spred =
  | SEq of string * operand
  | SGe of string * operand
  | SLe of string * operand
  | SPresent of string
  | SSub of string * operand option * operand list * operand option

type lit = { pos : bool; pred : spred }

let spred_attr = function
  | SEq (a, _) | SGe (a, _) | SLe (a, _) | SPresent a | SSub (a, _, _, _) -> a

(* Convert one side of the comparison to a literal tree. *)
type tree = TAnd of tree list | TOr of tree list | TLit of lit

let rec tree_of_template mk pos (t : Template.t) : tree =
  let value = function Template.Hole i -> mk i | Template.Const s -> C s in
  match t with
  | Template.And gs ->
      let subtrees = List.map (tree_of_template mk pos) gs in
      if pos then TAnd subtrees else TOr subtrees
  | Template.Or gs ->
      let subtrees = List.map (tree_of_template mk pos) gs in
      if pos then TOr subtrees else TAnd subtrees
  | Template.Not g -> tree_of_template mk (not pos) g
  | Template.Pred p ->
      let pred =
        match p with
        | Template.Equality (a, v) | Template.Approx (a, v) -> SEq (a, value v)
        | Template.Greater_eq (a, v) -> SGe (a, value v)
        | Template.Less_eq (a, v) -> SLe (a, value v)
        | Template.Present a -> SPresent a
        | Template.Substrings (a, i, any, f) ->
            SSub (a, Option.map value i, List.map value any, Option.map value f)
      in
      TLit { pos; pred }

exception Too_big

let max_conjuncts = 512
let max_literals = 64

(* DNF as a list of conjuncts (literal lists). *)
let rec dnf = function
  | TLit l -> [ [ l ] ]
  | TOr gs -> List.concat_map dnf gs
  | TAnd gs ->
      List.fold_left
        (fun acc g ->
          let d = dnf g in
          let product =
            List.concat_map
              (fun conj ->
                List.map
                  (fun conj' ->
                    let merged = conj @ conj' in
                    if List.length merged > max_literals then raise Too_big else merged)
                  d)
              acc
          in
          if List.length product > max_conjuncts then raise Too_big else product)
        [ [] ] gs

(* --- Emptiness conditions per conjunct ------------------------------ *)

type bound = operand * bool (* value, strict *)

type group = {
  mutable lows : bound list;
  mutable highs : bound list;
  mutable eq_points : operand list;  (* positive equality points *)
  mutable exclusions : operand list;  (* negated equality points *)
  mutable prefix_exclusions : operand list;  (* negated prefix assertions *)
  mutable prefix_points : operand list;  (* positive prefix initials *)
  mutable has_positive : bool;
  mutable statically_empty : bool;  (* e.g. positive plus not-present *)
}

let new_group () =
  {
    lows = [];
    highs = [];
    eq_points = [];
    exclusions = [];
    prefix_exclusions = [];
    prefix_points = [];
    has_positive = false;
    statically_empty = false;
  }

(* A prefix assertion [attr=p*] confines the value to [p, succ p) only
   when the syntax orders values lexically; integer order disagrees
   ("-2*" matches -25 < -2, "1*" matches 10 > succ "1"), so there the
   window must not be used as range bounds. *)
let prefix_orderable = function
  | Value.Integer -> false
  | Value.Case_ignore | Value.Case_exact | Value.Telephone -> true

let add_positive syntax g = function
  | SEq (_, v) ->
      g.has_positive <- true;
      g.eq_points <- v :: g.eq_points;
      g.lows <- (v, false) :: g.lows;
      g.highs <- (v, false) :: g.highs
  | SGe (_, v) ->
      g.has_positive <- true;
      g.lows <- (v, false) :: g.lows
  | SLe (_, v) ->
      g.has_positive <- true;
      g.highs <- (v, false) :: g.highs
  | SPresent _ -> g.has_positive <- true
  | SSub (_, initial, _, _) -> (
      g.has_positive <- true;
      match initial with
      | Some p ->
          g.prefix_points <- p :: g.prefix_points;
          (* attr=p*...: the value lies in [p, succ p) — lexical
             syntaxes only. *)
          if prefix_orderable syntax then begin
            g.lows <- (p, false) :: g.lows;
            g.highs <- (Succ p, true) :: g.highs
          end
      | None -> ())

let add_negative g = function
  | SEq (_, v) -> g.exclusions <- v :: g.exclusions
  | SGe (_, v) ->
      (* no value >= v: every value < v. *)
      g.highs <- (v, true) :: g.highs
  | SLe (_, v) -> g.lows <- (v, true) :: g.lows
  | SPresent _ ->
      (* no value at all: inconsistent with any positive literal. *)
      g.statically_empty <- true
  | SSub (_, initial, any, final) -> (
      (* Only an initial-only negated substring gives a usable
         exclusion (no value has prefix p); anything more complex is
         ignored, which is conservative. *)
      match (initial, any, final) with
      | Some p, [], None -> g.prefix_exclusions <- p :: g.prefix_exclusions
      | _ -> ())

(* Atoms expressing "this group's feasible region is empty". *)
let group_atoms attr g : [ `Static_true | `Atoms of cond_atom list ] =
  if g.statically_empty && g.has_positive then `Static_true
  else if not g.has_positive then `Atoms []
  else begin
    let atoms = ref [] in
    let push atom = atoms := { attr; atom } :: !atoms in
    (* Crossing bounds. *)
    List.iter
      (fun (low, low_strict) ->
        List.iter
          (fun (high, high_strict) ->
            (* Skip the trivial self-pair coming from one equality. *)
            if not (low == high && (not low_strict) && not high_strict) then
              push (Empty_range { low; low_strict; high; high_strict }))
          g.highs)
      g.lows;
    (* Excluded points. *)
    List.iter
      (fun excl ->
        List.iter (fun p -> push (Equal (p, excl))) g.eq_points;
        (* A point range [l, h] with l = h = excl is also emptied. *)
        List.iter
          (fun (low, ls) ->
            List.iter
              (fun (high, hs) ->
                if (not ls) && not hs then push (Point_excluded { low; high; excl }))
              g.highs)
          g.lows)
      g.exclusions;
    (* Negated prefixes swallowing required points/prefixes. *)
    List.iter
      (fun p ->
        List.iter (fun v -> push (Has_prefix (p, v))) g.eq_points;
        List.iter (fun v -> push (Has_prefix (p, v))) g.prefix_points)
      g.prefix_exclusions;
    `Atoms !atoms
  end

module Smap = Map.Make (String)

(* Condition for one DNF conjunct to be inconsistent: a disjunction of
   atoms collected over its attributes.  [`Static_true] when it is
   inconsistent regardless of hole values. *)
let conjunct_condition conj : [ `Static_true | `Atoms of cond_atom list ] =
  (* Group literals per attribute. *)
  let by_attr =
    List.fold_left
      (fun m lit ->
        let attr = spred_attr lit.pred in
        let existing = Option.value ~default:[] (Smap.find_opt attr m) in
        Smap.add attr (lit :: existing) m)
      Smap.empty conj
  in
  let static = ref false in
  let atoms = ref [] in
  Smap.iter
    (fun attr lits ->
      if not !static then begin
        let positives = List.filter (fun l -> l.pos) lits in
        let negatives = List.filter (fun l -> not l.pos) lits in
        let single = Schema.is_single_valued attr in
        let syntax = Schema.syntax_of attr in
        let groups =
          if single then begin
            (* All positives constrain the one value jointly. *)
            let g = new_group () in
            List.iter (fun l -> add_positive syntax g l.pred) positives;
            List.iter (fun l -> add_negative g l.pred) negatives;
            [ g ]
          end
          else
            (* Multi-valued: each positive needs its own witness; the
               negatives constrain all witnesses. *)
            List.map
              (fun l ->
                let g = new_group () in
                add_positive syntax g l.pred;
                List.iter (fun n -> add_negative g n.pred) negatives;
                g)
              positives
        in
        List.iter
          (fun g ->
            match group_atoms attr g with
            | `Static_true -> static := true
            | `Atoms a -> atoms := a @ !atoms)
          groups
      end)
    by_attr;
  if !static then `Static_true else `Atoms !atoms

(* --- Atom evaluation ------------------------------------------------ *)

exception Unknown_value

let rec resolve ~left ~right = function
  | L i -> if i < Array.length left then left.(i) else raise Unknown_value
  | R i -> if i < Array.length right then right.(i) else raise Unknown_value
  | C s -> s
  | Succ o -> (
      let v = resolve ~left ~right o in
      match Value.successor_of_prefix v with
      | s -> s
      | exception Invalid_argument _ -> raise Unknown_value)

(* Empty-range test under the attribute syntax.  Integer syntax is
   discrete, so strict bounds are tightened by one before comparing. *)
let empty_range syntax ~low ~low_strict ~high ~high_strict =
  match syntax with
  | Value.Integer -> (
      match (int_of_string_opt (String.trim low), int_of_string_opt (String.trim high)) with
      | Some l, Some h ->
          let l = if low_strict then l + 1 else l in
          let h = if high_strict then h - 1 else h in
          l > h
      | _ ->
          let c = Value.compare syntax low high in
          c > 0 || (c = 0 && (low_strict || high_strict)))
  | Value.Case_ignore | Value.Case_exact | Value.Telephone ->
      let c = Value.compare syntax low high in
      c > 0 || (c = 0 && (low_strict || high_strict))

let has_prefix_norm syntax ~prefix v =
  let prefix = Value.normalize syntax prefix and v = Value.normalize syntax v in
  String.length v >= String.length prefix
  && String.sub v 0 (String.length prefix) = prefix

let eval_atom ~left ~right { attr; atom } =
  let syntax = Schema.syntax_of attr in
  try
    match atom with
    | Empty_range { low; low_strict; high; high_strict } ->
        let low = resolve ~left ~right low and high = resolve ~left ~right high in
        empty_range syntax ~low ~low_strict ~high ~high_strict
    | Equal (a, b) ->
        Value.equal syntax (resolve ~left ~right a) (resolve ~left ~right b)
    | Point_excluded { low; high; excl } ->
        let low = resolve ~left ~right low
        and high = resolve ~left ~right high
        and excl = resolve ~left ~right excl in
        Value.equal syntax low high && Value.equal syntax low excl
    | Has_prefix (p, v) ->
        has_prefix_norm syntax ~prefix:(resolve ~left ~right p) (resolve ~left ~right v)
  with Unknown_value -> false

let eval t ~left ~right =
  match t with
  | Always -> true
  | Never -> false
  | Cnf clauses ->
      List.for_all
        (fun clause -> List.exists (eval_atom ~left ~right) clause)
        clauses

(* --- Compilation ----------------------------------------------------- *)

(* Operand with no holes: value known at compile time. *)
let rec const_operand = function
  | C _ -> true
  | Succ o -> const_operand o
  | L _ | R _ -> false

let const_atom { attr = _; atom } =
  match atom with
  | Empty_range { low; high; _ } -> const_operand low && const_operand high
  | Equal (a, b) | Has_prefix (a, b) -> const_operand a && const_operand b
  | Point_excluded { low; high; excl } ->
      const_operand low && const_operand high && const_operand excl

let compile ~left ~right =
  let ltree = tree_of_template (fun i -> L i) true left in
  let rtree = tree_of_template (fun i -> R i) false right in
  match dnf (TAnd [ ltree; rtree ]) with
  | exception Too_big -> None
  | conjuncts ->
      let clauses =
        List.filter_map
          (fun conj ->
            match conjunct_condition conj with
            | `Static_true -> None (* condition TRUE: contributes nothing *)
            | `Atoms atoms -> (
                (* Fold constant atoms now. *)
                let static_true = ref false in
                let residual =
                  List.filter
                    (fun a ->
                      if const_atom a then begin
                        if eval_atom ~left:[||] ~right:[||] a then
                          static_true := true;
                        false
                      end
                      else true)
                    atoms
                in
                if !static_true then None else Some residual))
          conjuncts
      in
      if List.exists (fun c -> c = []) clauses then Some Never
      else if clauses = [] then Some Always
      else Some (Cnf clauses)

let contained f1 f2 =
  match compile ~left:(Template.constant f1) ~right:(Template.constant f2) with
  | None -> false
  | Some cond -> eval cond ~left:[||] ~right:[||]

(* --- Staged evaluation ------------------------------------------------ *)

module Compiled = struct
  exception Unknown

  type atom_fn = string array -> string array -> bool

  type cond = Const of bool | Clauses of atom_fn array array

  (* Stage an operand to a raw resolver plus its constant value when it
     has no holes.  [Error ()] marks a constant [Succ] with no
     successor: the atom can never hold. *)
  let rec operand = function
    | C s -> Ok ((fun (_ : string array) (_ : string array) -> s), Some s)
    | L i ->
        Ok
          ( (fun left (_ : string array) ->
              if i < Array.length left then left.(i) else raise Unknown),
            None )
    | R i ->
        Ok
          ( (fun (_ : string array) right ->
              if i < Array.length right then right.(i) else raise Unknown),
            None )
    | Succ o -> (
        match operand o with
        | Error () -> Error ()
        | Ok (_, Some v) -> (
            match Value.successor_of_prefix v with
            | s -> Ok ((fun _ _ -> s), Some s)
            | exception Invalid_argument _ -> Error ())
        | Ok (f, None) ->
            Ok
              ( (fun l r ->
                  match Value.successor_of_prefix (f l r) with
                  | s -> s
                  | exception Invalid_argument _ -> raise Unknown),
                None ))

  (* Apply projection [prep] once at stage time for constants, per
     evaluation otherwise. *)
  let prepared prep = function
    | Error () -> Error ()
    | Ok (_, Some v) ->
        let p = prep v in
        Ok (fun (_ : string array) (_ : string array) -> p)
    | Ok (f, None) -> Ok (fun l r -> prep (f l r))

  (* Integer-syntax values travel prepared as (trimmed form, parse):
     constant bounds are parsed once at stage time. *)
  let int_prep v =
    let n = String.trim v in
    (n, int_of_string_opt n)

  (* [Value.compare_integer] over prepared pairs, reusing the parses. *)
  let int_cmp (a, ai) (b, bi) =
    match (ai, bi) with
    | Some x, Some y -> Int.compare x y
    | Some _, None -> -1
    | None, Some _ -> 1
    | None, None -> String.compare a b

  let never _ _ = false

  (* Stage one atom: the attribute's syntax is resolved, constants are
     normalized/parsed and constant [Succ]s folded here, once; the
     returned closure touches only hole values per evaluation.  Truth
     values agree with {!eval_atom} on every input. *)
  let atom { attr; atom = a } : atom_fn =
    let syntax = Schema.syntax_of attr in
    let norm v = Value.normalize syntax v in
    match a with
    | Empty_range { low; low_strict; high; high_strict } -> (
        match syntax with
        | Value.Integer -> (
            match
              (prepared int_prep (operand low), prepared int_prep (operand high))
            with
            | Error (), _ | _, Error () -> never
            | Ok lo, Ok hi ->
                fun l r ->
                  let ((_, lp) as lv) = lo l r and ((_, hp) as hv) = hi l r in
                  (match (lp, hp) with
                  | Some x, Some y ->
                      let x = if low_strict then x + 1 else x in
                      let y = if high_strict then y - 1 else y in
                      x > y
                  | _ ->
                      let c = int_cmp lv hv in
                      c > 0 || (c = 0 && (low_strict || high_strict))))
        | Value.Case_ignore | Value.Case_exact | Value.Telephone -> (
            match (prepared norm (operand low), prepared norm (operand high)) with
            | Error (), _ | _, Error () -> never
            | Ok lo, Ok hi ->
                fun l r ->
                  let c = String.compare (lo l r) (hi l r) in
                  c > 0 || (c = 0 && (low_strict || high_strict))))
    | Equal (x, y) -> (
        match syntax with
        | Value.Integer -> (
            match
              (prepared int_prep (operand x), prepared int_prep (operand y))
            with
            | Error (), _ | _, Error () -> never
            | Ok a, Ok b -> fun l r -> int_cmp (a l r) (b l r) = 0)
        | Value.Case_ignore | Value.Case_exact | Value.Telephone -> (
            match (prepared norm (operand x), prepared norm (operand y)) with
            | Error (), _ | _, Error () -> never
            | Ok a, Ok b -> fun l r -> String.equal (a l r) (b l r)))
    | Point_excluded { low; high; excl } -> (
        match syntax with
        | Value.Integer -> (
            match
              ( prepared int_prep (operand low),
                prepared int_prep (operand high),
                prepared int_prep (operand excl) )
            with
            | Ok lo, Ok hi, Ok ex ->
                fun l r ->
                  let lv = lo l r in
                  int_cmp lv (hi l r) = 0 && int_cmp lv (ex l r) = 0
            | _, _, _ -> never)
        | Value.Case_ignore | Value.Case_exact | Value.Telephone -> (
            match
              ( prepared norm (operand low),
                prepared norm (operand high),
                prepared norm (operand excl) )
            with
            | Ok lo, Ok hi, Ok ex ->
                fun l r ->
                  let lv = lo l r in
                  String.equal lv (hi l r) && String.equal lv (ex l r)
            | _, _, _ -> never))
    | Has_prefix (p, v) -> (
        match (prepared norm (operand p), prepared norm (operand v)) with
        | Ok pf, Ok vf ->
            fun l r ->
              let p = pf l r and v = vf l r in
              String.length v >= String.length p
              && String.sub v 0 (String.length p) = p
        | _, _ -> never)

  let compile = function
    | Always -> Const true
    | Never -> Const false
    | Cnf clauses ->
        Clauses
          (Array.of_list
             (List.map
                (fun clause -> Array.of_list (List.map atom clause))
                clauses))

  let eval cond ~left ~right =
    match cond with
    | Const b -> b
    | Clauses clauses ->
        Array.for_all
          (fun clause ->
            Array.exists
              (fun f -> try f left right with Unknown -> false)
              clause)
          clauses
end

(* --- Printing -------------------------------------------------------- *)

let rec operand_to_string = function
  | L i -> Printf.sprintf "l%d" i
  | R i -> Printf.sprintf "r%d" i
  | C s -> Printf.sprintf "%S" s
  | Succ o -> Printf.sprintf "succ(%s)" (operand_to_string o)

let atom_to_string { attr; atom } =
  let o = operand_to_string in
  match atom with
  | Empty_range { low; low_strict; high; high_strict } ->
      Printf.sprintf "%s:empty%s%s,%s%s" attr
        (if low_strict then "(" else "[")
        (o low) (o high)
        (if high_strict then ")" else "]")
  | Equal (a, b) -> Printf.sprintf "%s:%s=%s" attr (o a) (o b)
  | Point_excluded { low; high; excl } ->
      Printf.sprintf "%s:point(%s=%s)excl(%s)" attr (o low) (o high) (o excl)
  | Has_prefix (a, b) -> Printf.sprintf "%s:prefix(%s,%s)" attr (o a) (o b)

let to_string = function
  | Always -> "TRUE"
  | Never -> "FALSE"
  | Cnf clauses ->
      String.concat " AND "
        (List.map
           (fun clause ->
             "(" ^ String.concat " OR " (List.map atom_to_string clause) ^ ")")
           clauses)
