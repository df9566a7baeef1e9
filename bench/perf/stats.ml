let rank n p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Stats.percentile: p outside (0, 1]";
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile sorted p =
  let n = Array.length sorted in
  let r = rank (max n 1) p in
  if n = 0 then Float.nan else sorted.(r - 1)

let beyond n p = if n = 0 then 0 else n - rank n p

let median = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles = function
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)
