let same_name () = 10
let swapped () = 11
