type t = int

let zero = 0
let next t = t + 1
let equal = Int.equal
let ( <= ) a b = a <= b
let ( < ) a b = a < b
let to_int t = t
let of_int i = i
let to_string = string_of_int
