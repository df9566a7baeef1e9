open Ldap

type t = Add of Entry.t | Modify of Entry.t | Delete of Dn.t | Retain of Dn.t

let target = function
  | Add e | Modify e -> Entry.dn e
  | Delete dn | Retain dn -> dn

let select (q : Query.t) = function
  | Add e -> Add (Entry.select e (Query.attr_list q.Query.attrs))
  | Modify e -> Modify (Entry.select e (Query.attr_list q.Query.attrs))
  | (Delete _ | Retain _) as a -> a

let entries_cost = function Add _ | Modify _ -> 1 | Delete _ | Retain _ -> 0

let bytes_cost = function
  | Add e | Modify e -> Ber.entry_size e
  | Delete dn | Retain dn -> Ber.message_overhead + Ber.dn_size dn

let kind_name = function
  | Add _ -> "add"
  | Modify _ -> "modify"
  | Delete _ -> "delete"
  | Retain _ -> "retain"
