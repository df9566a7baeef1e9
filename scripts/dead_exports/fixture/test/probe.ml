let check () = Deadfix_one.Server.probe () = 3
