type t = Base | One | Sub

let to_int = function Base -> 0 | One -> 1 | Sub -> 2
let equal a b = to_int a = to_int b
let compare a b = Int.compare (to_int a) (to_int b)

let of_int = function
  | 0 -> Some Base
  | 1 -> Some One
  | 2 -> Some Sub
  | _ -> None

let to_string = function Base -> "base" | One -> "one" | Sub -> "sub"

let of_string s =
  match String.lowercase_ascii s with
  | "base" -> Some Base
  | "one" | "onelevel" | "single" -> Some One
  | "sub" | "subtree" -> Some Sub
  | _ -> None

let covers ~outer ~inner =
  match (outer, inner) with
  | Sub, (Base | One | Sub) -> true
  | One, One -> true
  | One, (Base | Sub) -> false
  | Base, Base -> true
  | Base, (One | Sub) -> false
