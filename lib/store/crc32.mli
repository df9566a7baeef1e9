(** CRC-32 (IEEE 802.3, the zlib polynomial) used to guard every WAL
    record and snapshot image in the durable store.  A checksum
    mismatch on recovery marks the first torn or corrupt record, where
    replay truncates.  Computed slicing-by-8 (eight table lookups per
    eight input bytes); the output is the bytewise algorithm's. *)

val string : string -> int
(** Checksum of a whole string, as a non-negative 32-bit value. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of a substring.  Raises [Invalid_argument] when the
    range is not inside the string. *)

val bytes_sub : Bytes.t -> pos:int -> len:int -> int
(** Checksum of a byte-buffer region in place — lets the zero-copy
    WAL writer frame a record without materializing the payload as a
    string.  Raises [Invalid_argument] when the range is not inside
    the buffer. *)

val combine : int -> int -> len2:int -> int
(** [combine crc1 crc2 ~len2] is the checksum of [a ^ b] given [crc1],
    the checksum of [a], and [crc2], that of [b], which is [len2]
    bytes long — zlib's [crc32_combine], in O(32) steps once the
    shift for [len2] is known (shifts for lengths under 64 KB are
    kept after their first use).  The checksum of the empty string is
    [0], so [combine crc 0 ~len2:0 = crc].  Raises [Invalid_argument]
    for a negative [len2]. *)
