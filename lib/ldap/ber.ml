let message_overhead = 14

(* Type + length bytes around a primitive of length [n]. *)
let element n = n + 2

let dn_size dn = element (Dn.string_length dn)

let attr_size acc name values =
  let values_size = Array.fold_left (fun n v -> n + element (String.length v)) 0 values in
  acc + element (element (String.length name) + element values_size)

let walk_entry e =
  message_overhead + dn_size (Entry.dn e)
  + element (Entry.fold_attributes e ~init:0 ~f:attr_size)

let entry_size e = Entry.encoded_size e ~compute:walk_entry

(* Referral PDU carrying the given LDAP URLs. *)
let referral_size urls =
  message_overhead
  + List.fold_left (fun acc u -> acc + element (String.length u)) 0 urls

let search_request_size (q : Query.t) =
  message_overhead + dn_size q.base
  + Filter.printed_length (q.filter :> Filter.t)

let search_reply_size ~entries ~references =
  List.fold_left (fun acc e -> acc + entry_size e) message_overhead entries
  + List.fold_left (fun acc urls -> acc + referral_size urls) 0 references
