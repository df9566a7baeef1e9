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

(* Convert a normal filter, turning values into holes (when [hole]
   says so) numbered in the order [conv] reaches them; [bind] sees
   each hole's value as it is numbered, so in hole-number order. *)
let of_filter_gen ?(bind = ignore) ~hole (filter : Filter.normal) =
  let counter = ref 0 in
  let conv_value s =
    if hole s then begin
      let i = !counter in
      incr counter;
      bind s;
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
        (* Holes number final first, then any left to right, then
           initial.  Binding them in that order keeps the numbering
           from depending on the compiler's evaluation order of
           constructor arguments. *)
        let final = Option.map conv_value final in
        let any = List.map conv_value any in
        let initial = Option.map conv_value initial in
        Substrings (a, initial, any, final)
  in
  conv (filter :> Filter.t)

let of_filter filter = of_filter_gen ~hole:(fun _ -> true) filter

let classify filter =
  let values = ref [] in
  let t = of_filter_gen ~bind:(fun v -> values := v :: !values) ~hole:(fun _ -> true) filter in
  (t, Array.of_list (List.rev !values))

let constant filter = of_filter_gen ~hole:(fun _ -> false) filter

let of_string s =
  match Filter.of_string s with
  | Error e -> Error e
  | Ok f -> Ok (of_filter_gen ~hole:(fun v -> v = "_") (Filter.normalize f))

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

(* --- Shape ids ------------------------------------------------------- *)

(* Every operand and value feeds the hash: [Hashtbl.hash] alone stops
   after ten meaningful values, which would put the many shapes that
   differ only in a late operand into one bucket. *)
let rec hash = function
  | Pred p -> Hashtbl.hash p
  | Not g -> 3 + (31 * hash g)
  | And gs -> List.fold_left (fun h g -> (31 * h) + hash g) 5 gs
  | Or gs -> List.fold_left (fun h g -> (31 * h) + hash g) 7 gs

module Shapes = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( = )
  let hash = hash
end)

(* Shape ids, interned as [Ldap_compile.Attr_id] interns attribute
   names: one table for the process, an id per distinct template. *)
let shapes : int Shapes.t = Shapes.create 64

let shape_key t =
  match Shapes.find_opt shapes t with
  | Some id -> id
  | None ->
      let id = Shapes.length shapes in
      Shapes.add shapes t id;
      id

(* Structural match of a normal filter against the template, binding
   holes.  Both sides are in normal form with the same operand
   ordering; template conversion guarantees this for filters built
   from a template, and for independently parsed filters the shapes
   coincide whenever the template's value ordering is shape-determined
   (distinct attributes or operators). *)
exception No_match

let match_filter t (filter : Filter.normal) =
  let n = holes t in
  let out = Array.make n "" and bound = Bytes.make n '0' in
  let bind i v =
    if Bytes.get bound i = '0' then begin
      out.(i) <- v;
      Bytes.set bound i '1'
    end
    else if not (String.equal out.(i) v) then raise No_match
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
  match go t (filter :> Filter.t) with
  | () -> if Bytes.contains bound '0' then None else Some out
  | exception No_match -> None

