module S = Deadfix_one.Server
module Keys = Set.Make (Deadfix_one.Key)

(* Two [let module T]: each [T.] must resolve to its own binding. *)
let shadowed () =
  let module T = Deadfix_one.Server in
  let one = T.via_let_module () in
  let module T = Deadfix_two.Server in
  one + T.same_name ()

let total () =
  Deadfix_one.Server.used () + S.via_alias () + shadowed () + Deadfix_two.Swap.run ()
  + Deadfix_two.Value.reexported ()
  + Keys.cardinal (Keys.of_list [ 1; 2 ])
