let magic = '\xd1'
let frame_overhead = 9

let read_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Zero-copy framing: the payload is emitted backwards into a reused
   buffer, the CRC is computed over the byte region in place, and the
   header (magic, length, CRC) is prepended over it — one blit into
   the medium, no intermediate payload or frame strings. *)
module Wbuf = Ldap_compile.Wbuf

let prepend_be32 w n =
  Wbuf.prepend_char w (Char.chr (n land 0xff));
  Wbuf.prepend_char w (Char.chr ((n lsr 8) land 0xff));
  Wbuf.prepend_char w (Char.chr ((n lsr 16) land 0xff));
  Wbuf.prepend_char w (Char.chr ((n lsr 24) land 0xff))

let scratch = Wbuf.create ~capacity:1024 ()

let append_w ?(sync = true) medium ~name emit =
  let w = scratch in
  Wbuf.clear w;
  emit w;
  let buf, pos, len = Wbuf.view w in
  let crc = Crc32.bytes_sub buf ~pos ~len in
  prepend_be32 w crc;
  prepend_be32 w len;
  Wbuf.prepend_char w magic;
  let buf, pos, total = Wbuf.view w in
  Medium.append_sub medium ~name buf ~pos ~len:total;
  if sync then Medium.sync medium ~name

let append ?sync medium ~name payload =
  append_w ?sync medium ~name (fun w -> Wbuf.prepend_string w payload)

type recovery = {
  records : string list;
  valid_len : int;
  total_len : int;
  truncated : bool;
}

let scan s =
  let total = String.length s in
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos < total do
    if
      total - !pos < frame_overhead
      || s.[!pos] <> magic
      ||
      let len = read_be32 s (!pos + 1) in
      len < 0 || total - !pos - frame_overhead < len
    then ok := false
    else begin
      let len = read_be32 s (!pos + 1) in
      let crc = read_be32 s (!pos + 5) in
      if Crc32.sub s ~pos:(!pos + frame_overhead) ~len <> crc then ok := false
      else begin
        records := String.sub s (!pos + frame_overhead) len :: !records;
        pos := !pos + frame_overhead + len
      end
    end
  done;
  (List.rev !records, !pos, total)

let recover medium ~name =
  let contents = Option.value ~default:"" (Medium.read_whole medium ~name) in
  let records, valid_len, total_len = scan contents in
  let truncated = valid_len < total_len in
  if truncated then Medium.truncate medium ~name valid_len;
  { records; valid_len; total_len; truncated }
