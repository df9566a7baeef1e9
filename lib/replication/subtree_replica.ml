open Ldap
module Resync = Ldap_resync

type context = {
  suffix : Dn.t;
  mutable referrals : Dn.t list;
  consumer : Resync.Consumer.t;
}

type t = {
  transport : Resync.Transport.t;
  master_host : string;
  contexts : context list;
  stats : Stats.t;
}

let subtree_query suffix =
  Query.make ~scope:Scope.Sub ~manage_dsa_it:true ~base:suffix Filter.tt

let refresh_referrals ctx =
  ctx.referrals <-
    List.filter_map
      (fun e -> if Entry.is_referral e then Some (Entry.dn e) else None)
      (Resync.Consumer.entries ctx.consumer)

(* One poll of a context's session, its reply accounted in [stats]. *)
let poll t ~who ~fetch ctx =
  match Resync.Consumer.sync_over ctx.consumer t.transport ~host:t.master_host with
  | Ok outcome ->
      Stats.add_reply t.stats outcome.Resync.Consumer.reply ~fetch;
      refresh_referrals ctx
  | Error e -> invalid_arg (who ^ ": " ^ Resync.Consumer.sync_error_to_string e)

let create transport ~master_host ~subtrees =
  let context suffix =
    { suffix; referrals = []; consumer = Resync.Consumer.create (subtree_query suffix) }
  in
  let t =
    { transport; master_host; contexts = List.map context subtrees; stats = Stats.create () }
  in
  List.iter (poll t ~who:"Subtree_replica.create" ~fetch:true) t.contexts;
  t

let stats t = t.stats

let size_entries t =
  List.fold_left
    (fun acc c ->
      acc
      + List.length
          (List.filter
             (fun e -> not (Entry.is_referral e))
             (Resync.Consumer.entries c.consumer)))
    0 t.contexts

(* Algorithm isContained (b, C) from section 3.4.1. *)
let is_contained t base =
  List.exists
    (fun c ->
      if Dn.equal c.suffix base then true
      else if not (Dn.ancestor_of c.suffix base) then false
      else not (List.exists (fun r -> Dn.ancestor_of r base) c.referrals))
    t.contexts

let answer t (q : Query.t) =
  if not (is_contained t q.Query.base) then begin
    Stats.record_query t.stats ~hit:false;
    Replica.Referral
  end
  else begin
    (* The base is held: evaluate locally.  Referral objects in scope
       would make the answer partial (section 3.1.3): that is a miss. *)
    let ctx =
      List.find
        (fun c -> Dn.ancestor_of c.suffix q.Query.base)
        t.contexts
    in
    let scope_has_referral =
      List.exists (fun r -> Query.in_scope q r) ctx.referrals
    in
    if scope_has_referral then begin
      Stats.record_query t.stats ~hit:false;
      Replica.Referral
    end
    else
      let entries =
        Replica.eval_over_store q (Resync.Consumer.content ctx.consumer)
      in
      let entries =
        List.filter (fun e -> not (Entry.is_referral e)) entries
      in
      Stats.record_query t.stats ~hit:true;
      Replica.Answered entries
  end

let sync t = List.iter (poll t ~who:"Subtree_replica.sync" ~fetch:false) t.contexts
