open Ldap
module R = Ldap_replication
module Resync = Ldap_resync

type t = { replica : R.Filter_replica.t; name : string }

let create transport ~name ~parent =
  { replica = R.Filter_replica.create_over ~host:name transport ~master_host:parent; name }

let replica t = t.replica
let name t = t.name
let parent t = R.Filter_replica.master_host t.replica
let stats t = R.Filter_replica.stats t.replica

let reparent t ~parent = R.Filter_replica.retarget t.replica ~master_host:parent

(* Referral tiers a subscription may climb. *)
let max_referrals = 4

let subscribe t q =
  let rec chase referrals =
    match R.Filter_replica.install_filter t.replica q with
    | Ok () -> Ok ()
    | Error msg -> (
        match Node.referral_of_error msg with
        | None -> Error msg
        | Some url when referrals = 0 -> Error ("referral loop at " ^ url)
        | Some url -> (
            (* The parent cannot prove the subscription contained: chase
               the referral one tier up, moving the whole leaf — every
               other filter it holds stays admissible there, since
               admissibility only widens toward the root. *)
            match Referral.parse url with
            | Error e -> Error e
            | Ok { Referral.host; _ } ->
                reparent t ~parent:host;
                chase (referrals - 1)))
  in
  chase max_referrals

let sync t = R.Filter_replica.sync t.replica

let sync_async t k = R.Filter_replica.sync_async t.replica k

let subscriptions t = R.Filter_replica.stored_filters t.replica

(* The CSN this leaf has acknowledged across every subscription: the
   minimum of its cookies' CSNs (a leaf is only as fresh as its stalest
   filter), read from each consumer's cached cookie parse.  [Csn.zero]
   with no subscription, or once a consumer holds no usable cookie. *)
let unset = Csn.of_int max_int

let rec min_acked acc = function
  | [] -> if Csn.equal acc unset then Csn.zero else acc
  | (_, c) :: rest -> (
      match Resync.Consumer.cookie_csn c with
      | Some csn -> min_acked (if Csn.( < ) csn acc then csn else acc) rest
      | None -> Csn.zero)

let acked_csn t = min_acked unset (R.Filter_replica.consumers t.replica)

let content t q =
  match R.Filter_replica.consumer_for t.replica q with
  | Some c -> Resync.Consumer.entries c
  | None -> []

let content_seq t q =
  match R.Filter_replica.consumer_for t.replica q with
  | Some c -> Resync.Consumer.entries_seq c
  | None -> Seq.empty

(* --- Durability ------------------------------------------------------ *)

let open_store ?sync t medium = R.Filter_replica.open_store ?sync t.replica medium ~prefix:t.name
let checkpoint t = R.Filter_replica.checkpoint t.replica
let detach_store t = R.Filter_replica.detach_store t.replica
