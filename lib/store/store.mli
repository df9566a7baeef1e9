(** One durable state machine: a snapshot file plus a write-ahead log
    on a {!Medium}, named [<name>.snap] and [<name>.wal].

    The client appends one WAL record per state transition and
    periodically {!checkpoint_w}s the whole state, which atomically
    replaces the snapshot and resets the log.  {!open_state} reads back
    the latest good snapshot plus the WAL records to replay on top of
    it, truncating the log at the first torn or corrupt record.

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

val checkpoint_w : t -> (Ldap_compile.Wbuf.t -> int * int) -> unit
(** Atomically installs a new snapshot and resets the WAL to the new
    generation: [emit] writes the snapshot payload backwards into the
    reused buffer of {!Snapshot.write_w}, where it is framed and
    checksummed in place and copied into the medium once.  [emit]
    returns the CRC-32 and length of a tail of the payload whose
    checksum it already knows, [(0, 0)] for none, as
    {!Snapshot.write_w}'s does: the framing goes before the payload,
    so the tail stays a tail of the image. *)

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

val open_state :
  t ->
  populated:bool ->
  snapshot:(string -> (unit, string) result) ->
  replay:(string -> (unit, string) result) ->
  attach:(unit -> unit) ->
  checkpoint:(unit -> unit) ->
  (recovery, string) result
(** How every durable role opens its store over a value its [create]
    made.  The store is read back first: that never raises, whatever
    the medium holds, and re-arms the handle so later appends continue
    the recovered log.  When it holds nothing (no snapshot, no record),
    [attach] starts journaling and [checkpoint] writes the value's
    current state — fresh or already populated — as the first image.
    When it holds state, the value must be empty ([populated] false):
    [snapshot] restores the image, [replay] applies each WAL record on
    top, oldest first, and only then does [attach] resume journaling,
    so replay journals nothing.  A populated value over a non-empty
    store is an [Error], as is a failed restore.  Returns what
    recovery read. *)

val destroy : t -> unit
(** Removes the store's snapshot and log from the medium — used when
    the state machine itself is being discarded (e.g. a stored filter
    removed from a replica). *)
