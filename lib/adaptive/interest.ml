open Ldap

(* Scores decay lazily: a cell holds the score as of the last touch,
   and any read first rolls it forward by 0.5^(elapsed / half_life).
   The clock is the observation count, not wall time, so every run of
   the same workload produces the same scores. *)
type cell = { query : Query.t; mutable score : float; mutable last : int }

type t = {
  half_life : int option;
  table : (string, cell) Hashtbl.t;
  mutable now : int;
}

let key (q : Query.t) =
  Printf.sprintf "%s|%d|%s" (Dn.canonical q.Query.base)
    (Scope.to_int q.Query.scope)
    (Filter.to_string (q.Query.filter :> Filter.t))

let create ?half_life () =
  (match half_life with
  | Some h when h <= 0 -> invalid_arg "Interest.create: half_life must be > 0"
  | _ -> ());
  { half_life; table = Hashtbl.create 64; now = 0 }

let decay t cell =
  match t.half_life with
  | Some half_life when cell.last < t.now ->
      let elapsed = float_of_int (t.now - cell.last) in
      cell.score <- cell.score *. (0.5 ** (elapsed /. float_of_int half_life));
      cell.last <- t.now
  | _ -> ()

let observe t q =
  t.now <- t.now + 1;
  let key = key q in
  match Hashtbl.find_opt t.table key with
  | Some cell ->
      decay t cell;
      cell.score <- cell.score +. 1.0
  | None ->
      Hashtbl.replace t.table key { query = q; score = 1.0; last = t.now }

let touch t =
  (* Advance the clock without crediting anyone: a query answered
     entirely out of interest-free paths still ages the table. *)
  t.now <- t.now + 1

let fold t ~init ~f =
  Hashtbl.fold
    (fun _ cell acc ->
      decay t cell;
      f acc cell.query cell.score)
    t.table init

let reset t = Hashtbl.iter (fun _ cell -> cell.score <- 0.0) t.table
