let message_overhead = 14

(* Type + length bytes around a primitive of length [n]. *)
let element n = n + 2

let dn_size dn = element (Dn.string_length dn)

let rec values_size acc = function
  | [] -> acc
  | v :: rest -> values_size (acc + element (String.length v)) rest

let attr_size acc name values =
  acc + element (element (String.length name) + element (values_size 0 values))

let entry_size e =
  message_overhead + dn_size (Entry.dn e)
  + element (Entry.fold_attributes e ~init:0 ~f:attr_size)

let entry_size_selected e requested =
  entry_size (Entry.select e requested)

let referral_size urls =
  message_overhead
  + List.fold_left (fun acc u -> acc + element (String.length u)) 0 urls
