open Ldap

let handler ~master_host replica q =
  match Filter_replica.answer replica q with
  | Replica.Answered entries -> Server.Entries { Backend.entries; references = [] }
  | Replica.Referral -> Server.Referral [ Referral.make ~host:master_host () ]
