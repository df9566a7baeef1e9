open Ldap

type value = Hole of int | Const of string

type pred =
  | Equality of string * value
  | Greater_eq of string * value
  | Less_eq of string * value
  | Present of string
  | Substrings of string * value option * value list * value option
  | Approx of string * value

type t = And of t list | Or of t list | Not of t | Pred of pred

let rec fold_values f acc = function
  | Pred p ->
      let vs =
        match p with
        | Equality (_, v) | Greater_eq (_, v) | Less_eq (_, v) | Approx (_, v) -> [ v ]
        | Present _ -> []
        | Substrings (_, i, any, fi) ->
            Option.to_list i @ any @ Option.to_list fi
      in
      List.fold_left f acc vs
  | Not g -> fold_values f acc g
  | And gs | Or gs -> List.fold_left (fold_values f) acc gs

let holes t =
  fold_values (fun n v -> match v with Hole i -> max n (i + 1) | Const _ -> n) 0 t

let hole_attrs t =
  let out = Array.make (holes t) "" in
  let set attr = function Hole i -> out.(i) <- attr | Const _ -> () in
  let rec go = function
    | Pred p -> pred p
    | Not g -> go g
    | And gs | Or gs -> List.iter go gs
  and pred = function
    | Equality (a, v) | Greater_eq (a, v) | Less_eq (a, v) | Approx (a, v) ->
        set a v
    | Present _ -> ()
    | Substrings (a, i, any, f) ->
        Option.iter (set a) i;
        List.iter (set a) any;
        Option.iter (set a) f
  in
  go t;
  out

(* Convert a normalized filter, turning values into holes (when [hole]
   says so) numbered left-to-right. *)
let of_filter_gen ~hole filter =
  let counter = ref 0 in
  let conv_value s =
    if hole s then begin
      let i = !counter in
      incr counter;
      Hole i
    end
    else Const s
  in
  let rec conv = function
    | Filter.Pred p -> Pred (conv_pred p)
    | Filter.Not g -> Not (conv g)
    | Filter.And gs -> And (List.map conv gs)
    | Filter.Or gs -> Or (List.map conv gs)
  and conv_pred = function
    | Filter.Equality (a, v) -> Equality (a, conv_value v)
    | Filter.Greater_eq (a, v) -> Greater_eq (a, conv_value v)
    | Filter.Less_eq (a, v) -> Less_eq (a, conv_value v)
    | Filter.Present a -> Present a
    | Filter.Approx (a, v) -> Approx (a, conv_value v)
    | Filter.Substrings (a, { initial; any; final }) ->
        Substrings
          (a, Option.map conv_value initial, List.map conv_value any,
           Option.map conv_value final)
  in
  conv (Filter.normalize filter)

let of_filter filter = of_filter_gen ~hole:(fun _ -> true) filter

let of_string s =
  match Filter.of_string s with
  | Error e -> Error e
  | Ok f -> Ok (of_filter_gen ~hole:(fun v -> v = "_") f)

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error e -> invalid_arg ("Template.of_string_exn: " ^ e)

(* Printing reuses the filter printer by substituting marker strings:
   holes print as "_". *)
let rec to_filter_with subst = function
  | Pred p -> Filter.Pred (pred_to_filter subst p)
  | Not g -> Filter.Not (to_filter_with subst g)
  | And gs -> Filter.And (List.map (to_filter_with subst) gs)
  | Or gs -> Filter.Or (List.map (to_filter_with subst) gs)

and pred_to_filter subst = function
  | Equality (a, v) -> Filter.Equality (a, subst v)
  | Greater_eq (a, v) -> Filter.Greater_eq (a, subst v)
  | Less_eq (a, v) -> Filter.Less_eq (a, subst v)
  | Present a -> Filter.Present a
  | Approx (a, v) -> Filter.Approx (a, subst v)
  | Substrings (a, i, any, f) ->
      Filter.Substrings
        ( a,
          {
            Filter.initial = Option.map subst i;
            any = List.map subst any;
            final = Option.map subst f;
          } )

let to_string t =
  let subst = function Hole _ -> "_" | Const s -> s in
  Filter.to_string (to_filter_with subst t)

let shape_key = to_string

(* Structural match of a normalized filter against the template,
   binding holes.  Both sides are expected in normalized form with the
   same operand ordering; template conversion and Filter.normalize
   guarantee this for filters built from a template, and for
   independently parsed filters the shapes coincide whenever the
   template's value ordering is shape-determined (distinct attributes
   or operators). *)
exception No_match

let match_filter t filter =
  let bindings = Hashtbl.create 8 in
  let bind i v =
    match Hashtbl.find_opt bindings i with
    | Some v' when v <> v' -> raise No_match
    | _ -> Hashtbl.replace bindings i v
  in
  let value tv fv attr =
    match tv with
    | Hole i -> bind i fv
    | Const c ->
        if not (Value.equal (Schema.syntax_of attr) c fv) then raise No_match
  in
  let ovalue tv fv attr =
    match (tv, fv) with
    | None, None -> ()
    | Some tv, Some fv -> value tv fv attr
    | None, Some _ | Some _, None -> raise No_match
  in
  let rec go t f =
    match (t, f) with
    | Pred p, Filter.Pred q -> pred p q
    | Not a, Filter.Not b -> go a b
    | And ts, Filter.And fs | Or ts, Filter.Or fs ->
        if List.length ts <> List.length fs then raise No_match
        else List.iter2 go ts fs
    | (Pred _ | Not _ | And _ | Or _), _ -> raise No_match
  and pred p q =
    match (p, q) with
    | Equality (a, v), Filter.Equality (b, w) when a = b -> value v w a
    | Greater_eq (a, v), Filter.Greater_eq (b, w) when a = b -> value v w a
    | Less_eq (a, v), Filter.Less_eq (b, w) when a = b -> value v w a
    | Approx (a, v), Filter.Approx (b, w) when a = b -> value v w a
    | Present a, Filter.Present b when a = b -> ()
    | Substrings (a, i, any, f), Filter.Substrings (b, s) when a = b ->
        if List.length any <> List.length s.any then raise No_match;
        ovalue i s.initial a;
        List.iter2 (fun tv fv -> value tv fv a) any s.any;
        ovalue f s.final a
    | _ -> raise No_match
  in
  match go t (Filter.normalize filter) with
  | () ->
      let n = holes t in
      let out = Array.make n "" in
      let complete = ref true in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt bindings i with
        | Some v -> out.(i) <- v
        | None -> complete := false
      done;
      if !complete then Some out else None
  | exception No_match -> None

