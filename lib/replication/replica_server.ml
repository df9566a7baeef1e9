open Ldap

type t = { master_host : string; replica : Filter_replica.t }

let of_filter_replica ~master_host replica = { master_host; replica }

let handle_search t q =
  match Filter_replica.answer t.replica q with
  | Replica.Answered entries -> Server.Entries { Backend.entries; references = [] }
  | Replica.Referral -> Server.Referral [ Referral.make ~host:t.master_host () ]

let register t net ~name = Network.add_handler net ~name (handle_search t)
