open Ldap
module Resync = Ldap_resync

type context = {
  suffix : Dn.t;
  mutable referrals : Dn.t list;
  consumer : Resync.Consumer.t;
}

type t = {
  master : Resync.Master.t;
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

let create master ~subtrees =
  let stats = Stats.create () in
  let contexts =
    List.map
      (fun suffix ->
        let consumer = Resync.Consumer.create (subtree_query suffix) in
        let ctx = { suffix; referrals = []; consumer } in
        (match Resync.Consumer.sync consumer master with
        | Ok reply -> Stats.add_reply stats reply ~fetch:true
        | Error msg -> invalid_arg ("Subtree_replica.create: " ^ msg));
        refresh_referrals ctx;
        ctx)
      subtrees
  in
  { master; contexts; stats }

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
    Stats.record_query t.stats ~hit:false ~returned:0;
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
      Stats.record_query t.stats ~hit:false ~returned:0;
      Replica.Referral
    end
    else
      let entries =
        Replica.eval_over_store q (Resync.Consumer.content ctx.consumer)
      in
      let entries =
        List.filter (fun e -> not (Entry.is_referral e)) entries
      in
      Stats.record_query t.stats ~hit:true ~returned:(List.length entries);
      Replica.Answered entries
  end

let sync t =
  List.iter
    (fun c ->
      match Resync.Consumer.sync c.consumer t.master with
      | Ok reply ->
          Stats.add_reply t.stats reply ~fetch:false;
          refresh_referrals c
      | Error msg -> invalid_arg ("Subtree_replica.sync: " ^ msg))
    t.contexts
