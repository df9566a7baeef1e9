(** Replica performance counters: the section 7 metrics.

    Hit ratio is hits / queries; update traffic is split into resync
    traffic (keeping stored content in sync) and fetch traffic
    (bringing in newly selected filters during revolutions) — the two
    components of section 7.3.

    In a cascading topology a replica has two faces, counted
    separately so tiered traffic is attributable per link:

    - {e upstream-facing}: traffic on the link to this replica's
      master — the [sync_*], [fetch_*] and recovery counters;
    - {e downstream-facing}: ReSync traffic this replica re-serves to
      its own consumers when acting as an intermediate master — the
      [served_*] counters. *)

type t = {
  mutable queries : int;
  mutable hits : int;
  mutable entries_returned : int;
  mutable sync_entries : int;  (** Upstream resync traffic, in entries. *)
  mutable sync_bytes : int;
  mutable sync_actions : int;  (** Including DN-only deletes/retains. *)
  mutable fetch_entries : int;  (** Revolution fetch traffic, in entries. *)
  mutable fetch_bytes : int;
  mutable comparisons : int;  (** Containment checks performed. *)
  mutable sync_retries : int;  (** Re-sent exchanges after transport loss. *)
  mutable sync_backoff_ticks : int;  (** Modelled ticks spent backing off. *)
  mutable resyncs : int;
      (** Established sessions recovered through a full or degraded
          resynchronization after a disruption. *)
  mutable recovery_bytes : int;  (** Bytes of those recovery replies. *)
  mutable merkle_syncs : int;
      (** Merkle anti-entropy reconciliations driven over the upstream
          link. *)
  mutable merkle_bytes : int;
      (** Total modelled wire bytes of those walks — hash messages both
          ways plus the shipped segment entries. *)
  mutable sync_failures : int;  (** Polls abandoned with the retry budget spent. *)
  mutable served_replies : int;
      (** Downstream-facing: resync replies served to own consumers. *)
  mutable served_entries : int;  (** Downstream traffic, in entries. *)
  mutable served_bytes : int;  (** Downstream traffic, modelled bytes. *)
  mutable served_actions : int;
      (** Downstream actions, including pushed persist notifications. *)
}

val create : unit -> t
(** All counters zero. *)

val reset : t -> unit
(** Sets every counter back to zero. *)

val hit_ratio : t -> float
(** 0 when no queries were recorded. *)

val total_update_entries : t -> int
(** sync + fetch, the paper's Figures 6-7 y-axis. *)

val record_query : t -> hit:bool -> returned:int -> unit
(** Accounts one query; a hit also adds the entries it returned. *)

val add_reply : t -> Ldap_resync.Protocol.reply -> fetch:bool -> unit
(** Accounts one ReSync reply's entries, bytes and actions, as fetch
    traffic when [fetch] (the initial content of a newly installed
    filter or subtree) and as sync traffic otherwise. *)

val record_sync_outcome : t -> Ldap_resync.Consumer.outcome -> unit
(** Accounts one successful synchronization: its retries and backoff,
    and — when it recovered a disrupted session — the resync and the
    bytes the recovery reply cost. *)

val record_sync_failure : t -> unit

val record_merkle : t -> Ldap_antientropy.Exchange.report -> unit
(** Accounts one Merkle anti-entropy reconciliation: its request and
    reply bytes land in [merkle_bytes] (upstream-facing, like
    [sync_bytes]). *)

val record_served_reply : t -> Ldap_resync.Protocol.reply -> unit
(** Accounts one reply served downstream by this replica acting as an
    intermediate master. *)

val record_served_push : t -> Ldap_resync.Action.t -> unit
(** Accounts one persist-mode action pushed downstream. *)
