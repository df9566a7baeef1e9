(** Durability for a {!Ldap.Backend}: every committed update record
    is journaled to a {!Store} WAL as it happens, and {!checkpoint}
    snapshots the full server state — CSN, naming contexts with all
    entry images (parent before children), and the update log's
    retained records with its trim floor.

    {!open_store} is the one way in, fresh or on restart: over an
    empty store it checkpoints the backend as it stands; over a
    non-empty one it restores the latest snapshot plus the replayable
    WAL suffix into an empty backend through the {!Ldap.Backend}
    restore hooks.  The backend comes from {!Ldap.Backend.create}
    either way, so its indexes are the ones it was created with.
    Restoring notifies no subscriber, so a ReSync master may be
    created over the backend before its store is opened. *)

open Ldap

type t

val open_store : Backend.t -> Store.t -> (t * Store.recovery, string) result
(** Opens the backend's store by {!Store.open_state}'s rule — an
    empty store checkpoints the backend; a non-empty one is restored
    into it, which must then be empty (no context, CSN zero) — and
    journals its commits from then on.  Returns what recovery read. *)

val checkpoint : t -> unit
(** Writes a full snapshot and resets the WAL. *)
