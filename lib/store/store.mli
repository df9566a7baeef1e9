(** One durable state machine: a snapshot file plus a write-ahead log
    on a {!Medium}, named [<name>.snap] and [<name>.wal].

    The client appends one WAL record per state transition and
    periodically {!checkpoint_w}s the whole state, which atomically
    replaces the snapshot and resets the log.  {!recover} returns the
    latest good snapshot plus the WAL records to replay on top of it,
    truncating the log at the first torn or corrupt record.

    Snapshot and log are tied together by a generation number: the
    checkpoint bumps it, stamps the new snapshot with it and starts
    the fresh log with a header record carrying the same number.  A
    crash between the two steps therefore leaves a log from the
    previous generation, which recovery discards instead of replaying
    stale records onto the newer snapshot. *)

type t

val create : ?sync:bool -> Medium.t -> name:string -> t
(** A handle on the named store.  [sync] (default true) controls
    whether each appended record is fsynced; without it a crash can
    lose or tear the unsynced tail, which recovery then truncates. *)

val append_w : t -> (Ldap_compile.Wbuf.t -> unit) -> unit
(** Appends one record to the WAL: [emit] writes its payload into the
    WAL's reused buffer (see {!Wal.append_w}). *)

val checkpoint_w : t -> (Ldap_compile.Wbuf.t -> unit) -> unit
(** Atomically installs a new snapshot and resets the WAL to the new
    generation: [emit] writes the snapshot payload backwards into the
    reused buffer of {!Snapshot.write_w}, where it is framed and
    checksummed in place and copied into the medium once. *)

type recovery = {
  snapshot : string option;  (** Latest good snapshot payload. *)
  records : string list;  (** WAL payloads to replay, oldest first. *)
  truncated : bool;  (** A torn/corrupt WAL tail was cut off. *)
  truncation_point : int;
      (** Byte offset in the WAL where replay stopped (end of the
          last whole record). *)
  stale : int;
      (** Records discarded because the log belonged to an older
          generation than the snapshot. *)
  wal_bytes : int;  (** WAL size after truncation. *)
  snapshot_bytes : int;  (** Snapshot file size. *)
}

val recover : t -> recovery
(** Reads back durable state and re-arms the handle: subsequent
    appends continue the recovered log.  Never raises, whatever the
    medium holds. *)

val destroy : t -> unit
(** Removes the store's snapshot and log from the medium — used when
    the state machine itself is being discarded (e.g. a stored filter
    removed from a replica). *)
