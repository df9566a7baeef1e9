(* CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise one, and table [k] advances a byte's contribution
   through [k] further zero bytes, [t.(k*256 + n) = (t.((k-1)*256 + n)
   lsr 8) lxor t.(t.((k-1)*256 + n) land 0xff)].  The main loop folds
   eight input bytes per step with eight independent lookups instead of
   a chain of eight dependent ones; the tail runs bytewise.  Output is
   the same as the bytewise algorithm. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let byte b i = Char.code (Bytes.unsafe_get b i)

let bytes_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.bytes_sub";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let c =
      !crc
      lxor (byte b j lor (byte b (j + 1) lsl 8) lor (byte b (j + 2) lsl 16)
           lor (byte b (j + 3) lsl 24))
    in
    crc :=
      Array.unsafe_get t (0x700 + (c land 0xff))
      lxor Array.unsafe_get t (0x600 + ((c lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((c lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (c lsr 24))
      lxor Array.unsafe_get t (0x300 + byte b (j + 4))
      lxor Array.unsafe_get t (0x200 + byte b (j + 5))
      lxor Array.unsafe_get t (0x100 + byte b (j + 6))
      lxor Array.unsafe_get t (byte b (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc := Array.unsafe_get t ((!crc lxor byte b j) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* Read-only: the string is never written through the alias. *)
let sub s ~pos ~len = bytes_sub (Bytes.unsafe_of_string s) ~pos ~len
let string s = sub s ~pos:0 ~len:(String.length s)
