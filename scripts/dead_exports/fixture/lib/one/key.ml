type t = int

let compare = Int.compare
