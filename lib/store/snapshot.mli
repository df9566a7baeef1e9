(** Checkpoint images: one whole-state payload per file, CRC-guarded
    and written via {!Medium.write_atomic_sub} (the write-temp-then-rename
    idiom), so a crash never leaves a partial snapshot — recovery sees
    either the old image or the new one. *)

val write_w : Medium.t -> name:string -> (Ldap_compile.Wbuf.t -> int * int) -> unit
(** Atomically replaces the snapshot file with a payload: [emit]
    writes it backwards into a reused buffer and returns [(crc, len)],
    the CRC-32 of the last [len] bytes it wrote, a tail whose checksum
    it already knows; [(0, 0)], the empty tail, when it knows none.
    The CRC of the bytes before that tail is computed in place and
    folded with it ({!Crc32.combine}), the header prepended, and the
    image blitted into the medium with {!Medium.write_atomic_sub} — no
    payload or image string.  The buffer is shared, so [emit] must not
    call [write_w]. *)

val read : Medium.t -> name:string -> string option
(** The payload, or [None] when the file is missing, too short, has a
    wrong magic or fails its checksum.  The file is read with
    {!Medium.read_whole}.  Never raises. *)
