let check () = Deadfix_one.Server.probe () = 3
let options () = Deadfix_one.Opts.configure ?listed:(Some 2) ~unlisted:3 () = 5
let probed (c : Deadfix_one.Records.counters) = c.Deadfix_one.Records.probed
let mode () = Deadfix_one.Records.Test_built
