type t =
  | Zero
  | Fixed of int
  | Uniform of { lo : int; hi : int }
  | Exponential of { mean : int }
