module Own_server = Server
open Deadfix_one
module Server = Own_server

let zero : Key.t = 0
let run () = Server.swapped () + zero
