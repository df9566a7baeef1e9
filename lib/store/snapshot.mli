(** Checkpoint images: one whole-state payload per file, CRC-guarded
    and written via {!Medium.write_atomic} (the write-temp-then-rename
    idiom), so a crash never leaves a partial snapshot — recovery sees
    either the old image or the new one. *)

val write : Medium.t -> name:string -> string -> unit
(** Atomically replaces the snapshot file with the payload. *)

val write_w : Medium.t -> name:string -> (Ldap_compile.Wbuf.t -> unit) -> unit
(** Writer twin of {!write}: [emit] writes the payload backwards into
    a reused buffer, the CRC is computed over it in place and the
    header prepended, and the image is blitted into the medium with
    {!Medium.write_atomic_sub} — no payload or image string.  The
    installed file is byte-identical to {!write} of the same payload.
    The buffer is shared, so [emit] must not call [write_w]. *)

val read : Medium.t -> name:string -> string option
(** The payload, or [None] when the file is missing, too short, has a
    wrong magic or fails its checksum.  Never raises. *)
