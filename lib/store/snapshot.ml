(* Image layout: "SNP1" | 4-byte BE CRC-32 of payload | payload.  The
   payload is emitted backwards into a reused buffer, checksummed in
   place, the header prepended over it, and the whole image blitted
   into the medium once.  The emitter hands back the CRC of the tail
   it already knows, so only the bytes before it are read. *)

module Wbuf = Ldap_compile.Wbuf

let magic = "SNP1"
let scratch = Wbuf.create ~capacity:4096 ()

let write_w medium ~name emit =
  let w = scratch in
  Wbuf.clear w;
  let tail_crc, tail_len = emit w in
  let buf, pos, len = Wbuf.view w in
  let head = Crc32.bytes_sub buf ~pos ~len:(len - tail_len) in
  Wal.prepend_be32 w (Crc32.combine head tail_crc ~len2:tail_len);
  Wbuf.prepend_string w magic;
  let buf, pos, len = Wbuf.view w in
  Medium.write_atomic_sub medium ~name buf ~pos ~len

let read medium ~name =
  match Medium.read_whole medium ~name with
  | None -> None
  | Some s ->
      if String.length s < 8 || String.sub s 0 4 <> magic then None
      else
        let crc = Wal.read_be32 s 4 in
        let payload = String.sub s 8 (String.length s - 8) in
        if Crc32.string payload = crc then Some payload else None
