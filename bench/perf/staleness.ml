type log = { mutable best : int array; mutable events : (int * int array) list }

type t = {
  mutable commits : (int * int array) list;  (* newest first *)
  leaves : (string, log) Hashtbl.t;
}

let create () = { commits = []; leaves = Hashtbl.create 256 }
let commit t ~tick v = t.commits <- (tick, Array.copy v) :: t.commits

let ack t name ~tick v =
  match Hashtbl.find_opt t.leaves name with
  | None -> Hashtbl.replace t.leaves name { best = Array.copy v; events = [ (tick, Array.copy v) ] }
  | Some l ->
      let advanced = ref false in
      let best =
        Array.mapi
          (fun i b ->
            if v.(i) > b then begin
              advanced := true;
              v.(i)
            end
            else b)
          l.best
      in
      if !advanced then begin
        l.best <- best;
        l.events <- (tick, best) :: l.events
      end

type summary = { pairs : int; censored : int; p50 : float; p99 : float }

let covers ack v =
  let ok = ref true in
  Array.iteri (fun i c -> if ack.(i) < c then ok := false) v;
  !ok

let summarize t ~horizon =
  let commits = List.rev t.commits in
  let hist = Array.make (horizon + 1) 0 in
  let pairs = ref 0 and censored = ref 0 in
  Hashtbl.iter
    (fun _ l ->
      let rec go commits acks =
        match (commits, acks) with
        | [], _ -> ()
        | rest, [] -> censored := !censored + List.length rest
        | (tc, v) :: crest, (ta, a) :: arest ->
            if ta > horizon then censored := !censored + List.length commits
            else if ta >= tc && covers a v then begin
              let s = ta - tc in
              hist.(s) <- hist.(s) + 1;
              incr pairs;
              go crest acks
            end
            else go commits arest
      in
      go commits (List.rev l.events))
    t.leaves;
  let rank p =
    let target = max 1 (int_of_float (Float.ceil ((p *. float_of_int !pairs) -. 1e-9))) in
    let rec find i seen =
      if i > horizon then float_of_int horizon
      else
        let seen = seen + hist.(i) in
        if seen >= target then float_of_int i else find (i + 1) seen
    in
    if !pairs = 0 then 0.0 else find 0 0
  in
  {
    pairs = !pairs;
    censored = !censored;
    p50 = rank 0.5;
    p99 = rank 0.99;
  }
