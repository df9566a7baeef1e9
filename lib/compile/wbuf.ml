(* A backwards-growing byte buffer: data occupies the tail
   [pos, capacity) of [buf] and every write prepends.  DER values are
   length-prefixed, so writing a composite value forwards needs either
   a length pre-pass or an intermediate copy per nesting level (the
   [String.concat] codec paid the latter); writing the body first and
   prepending length-then-tag needs neither.  Growing reallocates and
   blits the used tail to the end of the larger buffer. *)

type t = { mutable buf : Bytes.t; mutable pos : int }

let create ?(capacity = 256) () =
  let capacity = max capacity 16 in
  { buf = Bytes.create capacity; pos = capacity }

let clear t = t.pos <- Bytes.length t.buf
let length t = Bytes.length t.buf - t.pos

let grow t need =
  let len = Bytes.length t.buf in
  let used = len - t.pos in
  let cap = ref (max 32 (2 * len)) in
  while !cap - used < need do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit t.buf t.pos buf (!cap - used) used;
  t.buf <- buf;
  t.pos <- !cap - used

let prepend_char t c =
  if t.pos = 0 then grow t 1;
  t.pos <- t.pos - 1;
  Bytes.unsafe_set t.buf t.pos c

let prepend_string t s =
  let n = String.length s in
  if t.pos < n then grow t n;
  t.pos <- t.pos - n;
  Bytes.blit_string s 0 t.buf t.pos n

let mark t = length t
let since t m = length t - m
let contents t = Bytes.sub_string t.buf t.pos (length t)
let view t = (t.buf, t.pos, length t)
