let check () = Deadfix_one.Server.probe () = 3
let options () = Deadfix_one.Opts.configure ?listed:(Some 2) ~unlisted:3 () = 5
