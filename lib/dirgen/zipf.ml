type t = { cumulative : float array }

let create ?(s = 1.0) n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let cumulative = Array.make n 0.0 in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cumulative.(i) <- !acc)
    weights;
  cumulative.(n - 1) <- 1.0;
  { cumulative }

let size t = Array.length t.cumulative

let sample t prng =
  let target = Prng.float prng 1.0 in
  (* Binary search for the first rank with cumulative >= target. *)
  let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo
