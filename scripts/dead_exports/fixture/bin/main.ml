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
  + Deadfix_one.Opts.configure ~prod:1 ()

module R = Deadfix_one.Records

let records () =
  let c = { R.unread = 0; bumped = 0; probed = 0; matched = 0; used = 1 } in
  c.bumped <- c.bumped + 1;
  let { R.matched; _ } = c in
  let s = { R.kept = 1; replaced = 2 } in
  let s = { s with R.replaced = 3 } in
  let same = { R.left = 1; right = 2 } = { R.left = 1; right = 3 } in
  let mode = match R.Built with R.Built -> 1 | R.Test_built -> 2 | R.Matched_only -> 3 in
  c.used + matched + s.R.replaced + Bool.to_int same + mode
