type t = int

let zero = 0
let next t = t + 1
let equal = Int.equal
let ( <= ) a b = a <= b
let ( < ) a b = a < b
let to_int t = t
let of_int i = i
(* [string_of_int n]'s length.  Digits are taken off [-|n|], which
   holds [min_int] too. *)
let decimal_width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Writes the digits of [-m] ([m <= 0]) ending at [i]; returns the
   first digit's index. *)
let rec write_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  if m <= -10 then write_digits b (i - 1) (m / 10) else i

let write_decimal b ~stop n =
  let first = write_digits b (stop - 1) (if n < 0 then n else -n) in
  if n < 0 then Bytes.unsafe_set b (first - 1) '-'

(* [string_of_int t] without its format interpreter: a commit stamps
   its post-image with this. *)
let to_string t =
  let n = decimal_width t in
  let b = Bytes.create n in
  write_decimal b ~stop:n t;
  Bytes.unsafe_to_string b
