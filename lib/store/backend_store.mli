(** Durability for a {!Ldap.Backend}: every committed update record
    is journaled to a {!Store} WAL as it happens, and {!checkpoint}
    snapshots the full server state — CSN, naming contexts with all
    entry images (parent before children), and the update log's
    retained records with its trim floor.

    {!recover} rebuilds a backend from the latest snapshot plus the
    replayable WAL suffix via the {!Ldap.Backend} restore hooks;
    subscribers (ReSync masters, dispatch indexes) re-attach to the
    recovered instance as they would to a fresh one. *)

open Ldap

type t

val attach : Backend.t -> Store.t -> t
(** Starts journaling the backend's commits to the store.  Call once
    per backend lifetime, after {!recover} on restart. *)

val checkpoint : t -> unit
(** Writes a full snapshot and resets the WAL. *)

val recover :
  ?indexed:string list ->
  Store.t ->
  (Backend.t * Store.recovery, string) result
(** Rebuilds a backend from durable state: loads the snapshot (empty
    backend when there is none), replays the WAL records on top, and
    reports what recovery found.  [indexed] mirrors
    {!Ldap.Backend.create}. *)
