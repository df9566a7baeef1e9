(** One shard of a partitioned master: a {!Ldap.Backend} plus
    {!Ldap_resync.Master} pair with its own CSN stream, session table
    and WAL/snapshot slots.

    Each shard is an ordinary master — the router registers it on the
    transport under its {!host} and speaks plain ReSync to it — so
    crash/restart of a single shard reuses the existing durable-store
    and Merkle recovery paths unchanged, independently of its peers. *)

open Ldap

type t

val create :
  ?strategy:Ldap_resync.Master.strategy ->
  ?indexed:string list ->
  Schema.t ->
  id:int ->
  t
(** A fresh, empty shard: backend plus master, CSN at zero.  The
    schema argument is the one schema ({!Schema.default}) and goes
    unused: the end-to-end benchmark still passes it. *)

val host : t -> string
(** Transport host name ("shard-<id>"). *)

val backend : t -> Backend.t
(** The shard's own backend (its slice of the directory). *)

val master : t -> Ldap_resync.Master.t
(** The ReSync master serving this shard's sessions. *)

val csn : t -> Csn.t
(** Head of the shard's own CSN stream. *)

val applied : t -> int
(** Updates applied at this shard since creation/recovery. *)

val seed : t -> contexts:Entry.t list -> Entry.t list -> (unit, string) result
(** Installs initial content through the restore path (no update-log
    records, CSN untouched): naming-context suffixes first, then the
    entries parent-before-child. *)

val apply : t -> Update.op -> (Update.record, string) result
(** Commits one update at this shard (advancing its CSN stream). *)

val open_store :
  t -> Ldap_store.Medium.t -> prefix:string -> (Ldap_store.Store.recovery, string) result
(** Makes the shard durable on the medium: backend WAL/snapshot under
    [<prefix>-backend], master session table under [<prefix>-master],
    each opened by {!Ldap_store.Store.open_state}'s rule, and returns
    what the backend's store read back.  Over an
    empty medium both are checkpointed, so it holds a full image.
    After a crash, open the medium under a shard {!create}d as the
    lost one was: its backend is restored with the indexes and its
    master with the strategy that [create] gave them, journaling
    resumes, and surviving consumers of this shard resume
    incrementally; other shards are untouched.  Records are not
    fsynced one by one. *)

val checkpoint : t -> unit
(** Snapshots backend and master stores (no-op before
    {!open_store}). *)
