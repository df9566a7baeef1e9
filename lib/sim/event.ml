(* Binary min-heap ordered by (time, seq), kept in flat int arrays so
   adding or popping an event allocates nothing: heap position [i]
   holds an event's time, sequence number and the slot of [runs] its
   thunk sits in.  Sifts move the three ints only; a thunk is written
   once when added and cleared once when popped.  Free slots are kept
   on a stack. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable runs : (unit -> unit) array;
  mutable free : int array;  (* [free.(0 .. nfree - 1)]: unused slots *)
  mutable nfree : int;
  mutable size : int;
}

let create () =
  let n = 16 in
  {
    times = Array.make n 0;
    seqs = Array.make n 0;
    slots = Array.make n 0;
    runs = Array.make n ignore;
    free = Array.init n (fun i -> n - 1 - i);
    nfree = n;
    size = 0;
  }

let is_empty t = t.size = 0

let min_time t =
  if t.size = 0 then invalid_arg "Event.min_time: empty queue";
  t.times.(0)

let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.runs <- extend t.runs ignore;
  (* Every old slot is in use: the new ones are the free ones. *)
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.nfree <- n

let add t ~time ~seq run =
  if t.size = Array.length t.times then grow t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.runs.(slot) <- run;
  (* Sift the hole at [size] up past every parent that follows the new
     event, then drop the event into it. *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.times.(p) in
    if time < pt || (time = pt && seq < t.seqs.(p)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(p);
      t.slots.(!i) <- t.slots.(p);
      i := p
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Event.pop: empty queue";
  let top = t.slots.(0) in
  let run = t.runs.(top) in
  t.runs.(top) <- ignore;
  t.free.(t.nfree) <- top;
  t.nfree <- t.nfree + 1;
  let n = t.size - 1 in
  t.size <- n;
  (* Re-seat the last event, sifting the hole at the root down past
     every smaller child. *)
  if n > 0 then begin
    let time = t.times.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.times.(r) < t.times.(l)
               || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (ct = time && t.seqs.(c) < seq) then begin
          t.times.(!i) <- ct;
          t.seqs.(!i) <- t.seqs.(c);
          t.slots.(!i) <- t.slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.slots.(!i) <- slot
  end;
  run
