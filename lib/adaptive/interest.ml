open Ldap

(* Scores decay lazily: a cell holds the score as of the last touch,
   and any read first rolls it forward by 0.5^(elapsed / half_life).
   The clock is the observation count, not wall time, so every run of
   the same workload produces the same scores. *)
type cell = { query : Query.t; mutable score : float; mutable last : int }

module Tbl = Hashtbl.Make (struct
  type t = Query.t

  let equal (a : t) (b : t) =
    Dn.equal a.base b.base && Scope.equal a.scope b.scope && Filter.equal a.filter b.filter

  let hash (q : t) = (31 * Hashtbl.hash (Dn.canonical q.base)) + Filter.hash q.filter
end)

type t = {
  half_life : int option;
  table : cell Tbl.t;
  order : cell Queue.t;  (* first-observation order *)
  mutable now : int;
}

let create ?half_life () =
  (match half_life with
  | Some h when h <= 0 -> invalid_arg "Interest.create: half_life must be > 0"
  | _ -> ());
  { half_life; table = Tbl.create 64; order = Queue.create (); now = 0 }

let decay t cell =
  match t.half_life with
  | Some half_life when cell.last < t.now ->
      let elapsed = float_of_int (t.now - cell.last) in
      cell.score <- cell.score *. (0.5 ** (elapsed /. float_of_int half_life));
      cell.last <- t.now
  | _ -> ()

let observe t q =
  t.now <- t.now + 1;
  match Tbl.find_opt t.table q with
  | Some cell ->
      decay t cell;
      cell.score <- cell.score +. 1.0
  | None ->
      let cell = { query = q; score = 1.0; last = t.now } in
      Tbl.replace t.table q cell;
      Queue.add cell t.order

let touch t =
  (* Advance the clock without crediting anyone: a query answered
     entirely out of interest-free paths still ages the table. *)
  t.now <- t.now + 1

let fold t ~init ~f =
  Queue.fold
    (fun acc cell ->
      decay t cell;
      f acc cell.query cell.score)
    init t.order

let reset t = Queue.iter (fun cell -> cell.score <- 0.0) t.order
