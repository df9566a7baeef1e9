let reexported () = 8
let never () = 9
