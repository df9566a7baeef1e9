(* Binary min-heap ordered by (time, seq), kept in flat int arrays so
   adding or popping an event allocates nothing: heap position [i]
   holds an event's time, sequence number and the slot of [runs] its
   thunk sits in.  Sifts move the three ints only; a thunk is written
   once when added and cleared once when popped.  Free slots are kept
   on a stack.  It holds only the events scheduled past the ring. *)
module Heap = struct
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
  let min_time t = t.times.(0)

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
end

(* A ring of [width] per-tick FIFO buckets covering the ticks
   [base, base + width): the bucket of tick [time] is [time land mask].
   Bucket nodes live in flat arrays, chained through [next]; unused
   nodes form a free list through the same array, so adding or popping
   allocates nothing once the pool is large enough.

   Order: within a tick, bucket order is scheduling order.  An event
   past the ring waits in the overflow heap and moves into its bucket
   the moment [pop] advances [base] far enough for its tick to enter
   the ring.  Until then every event of that tick is in the heap, and
   afterwards every later event of it is added straight to the bucket,
   so the bucket still holds them in scheduling order.

   [base] moves only in [pop], to the time of the event popped, which
   is the least pending time: [base] never passes the caller's clock,
   so no event can be scheduled behind it. *)
let width = 256
let mask = width - 1

type t = {
  mutable base : int;
  mutable scan : int;  (* every bucket of a tick in [base, scan) is empty *)
  heads : int array;  (* per bucket: its first node, or -1 *)
  tails : int array;  (* per non-empty bucket: its last node *)
  mutable next : int array;  (* per node: the next in its bucket or free list *)
  mutable runs : (unit -> unit) array;
  mutable free : int;  (* first free node, or -1 *)
  mutable count : int;  (* events in the ring *)
  overflow : Heap.t;
  mutable seq : int;  (* scheduling order of the overflow's events *)
}

let create () =
  let n = 64 in
  {
    base = 0;
    scan = 0;
    heads = Array.make width (-1);
    tails = Array.make width (-1);
    next = Array.init n (fun i -> if i = n - 1 then -1 else i + 1);
    runs = Array.make n ignore;
    free = 0;
    count = 0;
    overflow = Heap.create ();
    seq = 0;
  }

let is_empty t = t.count = 0 && Heap.is_empty t.overflow

let grow t =
  let n = Array.length t.next in
  let next = Array.init (2 * n) (fun i -> if i < n || i = (2 * n) - 1 then -1 else i + 1) in
  Array.blit t.next 0 next 0 n;
  let runs = Array.make (2 * n) ignore in
  Array.blit t.runs 0 runs 0 n;
  t.next <- next;
  t.runs <- runs;
  t.free <- n

let push t time run =
  if t.free < 0 then grow t;
  let node = t.free in
  t.free <- t.next.(node);
  t.runs.(node) <- run;
  t.next.(node) <- -1;
  let b = time land mask in
  if t.heads.(b) < 0 then t.heads.(b) <- node else t.next.(t.tails.(b)) <- node;
  t.tails.(b) <- node;
  t.count <- t.count + 1;
  if time < t.scan then t.scan <- time

let add t ~time run =
  if time < t.base then invalid_arg "Event.add: time before the earliest popped event";
  if time - t.base < width then push t time run
  else begin
    Heap.add t.overflow ~time ~seq:t.seq run;
    t.seq <- t.seq + 1
  end

(* The ring's earliest tick; the ring must hold an event. *)
let first_tick t =
  while t.heads.(t.scan land mask) < 0 do
    t.scan <- t.scan + 1
  done;
  t.scan

let min_time t =
  if t.count > 0 then first_tick t
  else if Heap.is_empty t.overflow then invalid_arg "Event.min_time: empty queue"
  else Heap.min_time t.overflow

(* Moves the ring to start at [time], no later than any pending event,
   and brings in the overflow events whose tick entered it, earliest
   (time, seq) first. *)
let advance t time =
  t.base <- time;
  if t.scan < time then t.scan <- time;
  let limit = time + width in
  while (not (Heap.is_empty t.overflow)) && Heap.min_time t.overflow < limit do
    let at = Heap.min_time t.overflow in
    push t at (Heap.pop t.overflow)
  done

let pop t =
  if t.count = 0 then begin
    if Heap.is_empty t.overflow then invalid_arg "Event.pop: empty queue";
    advance t (Heap.min_time t.overflow)
  end;
  let time = first_tick t in
  if time > t.base then advance t time;
  let b = time land mask in
  let node = t.heads.(b) in
  t.heads.(b) <- t.next.(node);
  let run = t.runs.(node) in
  t.runs.(node) <- ignore;
  t.next.(node) <- t.free;
  t.free <- node;
  t.count <- t.count - 1;
  run
