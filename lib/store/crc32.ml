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

(* --- Combining -----------------------------------------------------------
   zlib's crc32_combine: the CRC of [a ^ b] is the CRC of [a] shifted
   through [len b] zero bytes, xored with the CRC of [b].  Shifting is
   a multiplication by x^(8 len) modulo the polynomial; [multmodp]
   multiplies two reflected residues, [x2n.(k)] is x^(2^k) and
   [x2nmodp n k] is x^(n 2^k) from their binary powers.  [shifts]
   memoizes x^(8 len) per length below [memo_cap], filled on demand:
   the pieces a snapshot folds are entries whose lengths repeat from
   one checkpoint to the next. *)

(* Branch-free: bit [k] of [a] selects [b] times x^(31-k) by a mask,
   so the bits of a random residue cost no mispredicted branches. *)
let multmodp a b =
  let p = ref 0 and b = ref b in
  for k = 31 downto 0 do
    p := !p lxor (!b land -((a lsr k) land 1));
    b := (!b lsr 1) lxor (0xEDB88320 land -(!b land 1))
  done;
  !p

let x2n =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30;
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

let x2nmodp n k =
  let p = ref (1 lsl 31) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 = 1 then p := multmodp x2n.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let memo_cap = 1 lsl 16
let shifts = ref [||]

let shift len =
  if len >= memo_cap then x2nmodp len 3
  else begin
    let n = Array.length !shifts in
    if len >= n then begin
      let grown = Array.make (min memo_cap (max (len + 1) (2 * n))) 0 in
      Array.blit !shifts 0 grown 0 n;
      shifts := grown
    end;
    match !shifts.(len) with
    | 0 ->
        let s = x2nmodp len 3 in
        !shifts.(len) <- s;
        s
    | s -> s
  end

let combine crc1 crc2 ~len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  multmodp (shift len2) crc1 lxor crc2
