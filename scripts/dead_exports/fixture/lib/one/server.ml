let helper () = 1
let used () = helper () + 1
let probe () = 3
let via_alias () = 4
let via_let_module () = 5
let same_name () = 6
let swapped () = 7
