open Ldap

(* Scores decay lazily: a cell holds the score as of the last touch,
   and any read first rolls it forward by 0.5^(elapsed / half_life).
   The clock is the observation count, not wall time, so every run of
   the same workload produces the same scores. *)
type cell = { query : Query.t; mutable score : float; mutable last : int }

type t = {
  half_life : int;
  table : (string, cell) Hashtbl.t;
  mutable now : int;
  mutable observations : int;
}

let create ?(half_life = 256) () =
  if half_life <= 0 then invalid_arg "Interest.create: half_life must be > 0";
  { half_life; table = Hashtbl.create 64; now = 0; observations = 0 }

let count t = Hashtbl.length t.table

let decay t cell =
  if cell.last < t.now then begin
    let elapsed = float_of_int (t.now - cell.last) in
    cell.score <- cell.score *. (0.5 ** (elapsed /. float_of_int t.half_life));
    cell.last <- t.now
  end

let observe ?(weight = 1.0) t q =
  t.now <- t.now + 1;
  t.observations <- t.observations + 1;
  let key = Query.to_string q in
  match Hashtbl.find_opt t.table key with
  | Some cell ->
      decay t cell;
      cell.score <- cell.score +. weight
  | None ->
      Hashtbl.replace t.table key { query = q; score = weight; last = t.now }

let touch t =
  (* Advance the clock without crediting anyone: a query answered
     entirely out of interest-free paths still ages the table. *)
  t.now <- t.now + 1

let score t q =
  match Hashtbl.find_opt t.table (Query.to_string q) with
  | None -> 0.0
  | Some cell ->
      decay t cell;
      cell.score

let ranked t =
  let cells =
    Hashtbl.fold
      (fun key cell acc ->
        decay t cell;
        (key, cell) :: acc)
      t.table []
  in
  cells
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b.score a.score with 0 -> compare ka kb | c -> c)
  |> List.map (fun (_, cell) -> (cell.query, cell.score))

let prune t ~below =
  let victims =
    Hashtbl.fold
      (fun key cell acc ->
        decay t cell;
        if cell.score < below then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) victims;
  List.length victims
