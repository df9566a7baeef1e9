type t = {
  mutable queries : int;
  mutable hits : int;
  mutable entries_returned : int;
  mutable sync_entries : int;
  mutable sync_bytes : int;
  mutable sync_actions : int;
  mutable fetch_entries : int;
  mutable fetch_bytes : int;
  mutable comparisons : int;
  mutable sync_retries : int;
  mutable sync_backoff_ticks : int;
  mutable resyncs : int;
  mutable recovery_bytes : int;
  mutable merkle_syncs : int;
  mutable merkle_bytes : int;
  mutable sync_failures : int;
  mutable served_replies : int;
  mutable served_entries : int;
  mutable served_bytes : int;
  mutable served_actions : int;
}

let create () =
  {
    queries = 0;
    hits = 0;
    entries_returned = 0;
    sync_entries = 0;
    sync_bytes = 0;
    sync_actions = 0;
    fetch_entries = 0;
    fetch_bytes = 0;
    comparisons = 0;
    sync_retries = 0;
    sync_backoff_ticks = 0;
    resyncs = 0;
    recovery_bytes = 0;
    merkle_syncs = 0;
    merkle_bytes = 0;
    sync_failures = 0;
    served_replies = 0;
    served_entries = 0;
    served_bytes = 0;
    served_actions = 0;
  }

let reset t =
  t.queries <- 0;
  t.hits <- 0;
  t.entries_returned <- 0;
  t.sync_entries <- 0;
  t.sync_bytes <- 0;
  t.sync_actions <- 0;
  t.fetch_entries <- 0;
  t.fetch_bytes <- 0;
  t.comparisons <- 0;
  t.sync_retries <- 0;
  t.sync_backoff_ticks <- 0;
  t.resyncs <- 0;
  t.recovery_bytes <- 0;
  t.merkle_syncs <- 0;
  t.merkle_bytes <- 0;
  t.sync_failures <- 0;
  t.served_replies <- 0;
  t.served_entries <- 0;
  t.served_bytes <- 0;
  t.served_actions <- 0

let hit_ratio t = if t.queries = 0 then 0.0 else float_of_int t.hits /. float_of_int t.queries
let total_update_entries t = t.sync_entries + t.fetch_entries

let record_query t ~hit ~returned =
  t.queries <- t.queries + 1;
  if hit then begin
    t.hits <- t.hits + 1;
    t.entries_returned <- t.entries_returned + returned
  end

let add_reply t reply ~fetch =
  let entries = Ldap_resync.Protocol.entries_cost reply in
  let bytes = Ldap_resync.Protocol.bytes_cost reply in
  let actions = Ldap_resync.Protocol.actions_count reply in
  if fetch then begin
    t.fetch_entries <- t.fetch_entries + entries;
    t.fetch_bytes <- t.fetch_bytes + bytes
  end
  else begin
    t.sync_entries <- t.sync_entries + entries;
    t.sync_bytes <- t.sync_bytes + bytes
  end;
  t.sync_actions <- t.sync_actions + actions

let record_sync_outcome t (o : Ldap_resync.Consumer.outcome) =
  t.sync_retries <- t.sync_retries + (o.Ldap_resync.Consumer.attempts - 1);
  t.sync_backoff_ticks <- t.sync_backoff_ticks + o.Ldap_resync.Consumer.backoff;
  if o.Ldap_resync.Consumer.resynced then begin
    t.resyncs <- t.resyncs + 1;
    t.recovery_bytes <-
      t.recovery_bytes + Ldap_resync.Protocol.reply_bytes o.Ldap_resync.Consumer.reply
  end

let record_sync_failure t = t.sync_failures <- t.sync_failures + 1

let record_merkle t (r : Ldap_antientropy.Exchange.report) =
  t.merkle_syncs <- t.merkle_syncs + 1;
  t.merkle_bytes <-
    t.merkle_bytes
    + r.Ldap_antientropy.Exchange.bytes_sent
    + r.Ldap_antientropy.Exchange.bytes_received

let record_served_reply t reply =
  t.served_replies <- t.served_replies + 1;
  t.served_entries <- t.served_entries + Ldap_resync.Protocol.entries_cost reply;
  t.served_bytes <- t.served_bytes + Ldap_resync.Protocol.reply_bytes reply;
  t.served_actions <- t.served_actions + Ldap_resync.Protocol.actions_count reply

let record_served_push t action =
  t.served_entries <- t.served_entries + Ldap_resync.Action.entries_cost action;
  t.served_bytes <- t.served_bytes + Ldap_resync.Action.bytes_cost action;
  t.served_actions <- t.served_actions + 1
