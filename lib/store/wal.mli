(** Record framing for the append-only write-ahead log.

    Each record travels as [magic byte | 4-byte BE payload length |
    4-byte BE CRC-32 of the payload | payload].  Recovery scans from
    the start and stops at the first frame that is incomplete, has a
    wrong magic, an implausible length or a checksum mismatch — the
    torn/corrupt tail a crash can leave — and truncates the file back
    to the last whole record, so later appends continue from a clean
    boundary.  Recovery never raises on any byte string. *)

val prepend_be32 : Ldap_compile.Wbuf.t -> int -> unit
(** Prepends the big-endian 32-bit encoding frame headers use (shared
    with {!Snapshot}). *)

val read_be32 : string -> int -> int
(** Inverse of {!prepend_be32}, reading at a byte offset. *)

val append_w :
  ?sync:bool -> Medium.t -> name:string -> (Ldap_compile.Wbuf.t -> unit) -> unit
(** Frames one record and appends it; syncs by default.  [emit] writes
    the payload backwards into a reused buffer, the frame header is
    prepended in place and the whole record is blitted into the medium
    — no intermediate payload/frame strings.  The buffer is shared, so
    [emit] must not recursively call [append_w]. *)

type recovery = {
  records : string list;  (** Whole-record payloads, oldest first. *)
  valid_len : int;  (** Byte offset of the end of the last whole record. *)
  truncated : bool;  (** Whether a torn/corrupt tail was cut off. *)
}

val recover : Medium.t -> name:string -> recovery
(** Scans the whole log, read with {!Medium.read_whole}, truncating
    the medium file to [valid_len] when a torn tail is found.  A
    missing file recovers to the empty log. *)
