type t =
  | Zero
  | Fixed of int
  | Uniform of { lo : int; hi : int }
  | Exponential of { mean : int }

let draw t ~roll =
  match t with
  | Zero -> 0
  | Fixed d -> max 0 d
  | Uniform { lo; hi } ->
      if hi < lo then invalid_arg "Latency.draw: empty uniform range";
      let lo = max 0 lo in
      let hi = max lo hi in
      let u = roll () in
      lo + int_of_float (u *. float_of_int (hi - lo + 1))
  | Exponential { mean } ->
      if mean <= 0 then 0
      else begin
        let u = roll () in
        (* u is in [0,1); 1-u is in (0,1] so log is finite. *)
        let d = -.float_of_int mean *. log (1.0 -. u) in
        max 0 (int_of_float (Float.round d))
      end
