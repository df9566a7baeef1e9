let reference_ns = 4_000_000.0
let interval_ns = 50_000_000
let window_ns = 250_000_000

(* A single cycle through 2^21 slots (Sattolo's shuffle), so the chase
   visits slots in cache-hostile order. *)
let ring =
  lazy
    (let n = 1 lsl 21 in
     let a = Array.init n Fun.id in
     let st = Random.State.make [| 42 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let table = lazy (Array.make 4096 0)

(* Each run continues the chase where the last one stopped, so even
   back-to-back runs find their slots out of cache. *)
let pos = ref 0

let kernel_ns () =
  let ring = Lazy.force ring and table = Lazy.force table in
  let t0 = Clock.now_ns () in
  let i = ref !pos in
  for _ = 1 to 20_000 do
    i := ring.(!i)
  done;
  pos := !i;
  for k = 0 to 1_599_999 do
    let j = ((k * 0x9E3779B1) + !i) lsr 7 land 4095 in
    table.(j) <- table.(j) + k
  done;
  Clock.now_ns () - t0

type t = { mutable at : int array; mutable dur : int array; mutable n : int; mutable last : int }

let create () = { at = Array.make 1024 0; dur = Array.make 1024 0; n = 0; last = min_int }

let sample t =
  if t.n = Array.length t.at then begin
    let grow a = Array.append a (Array.make t.n 0) in
    t.at <- grow t.at;
    t.dur <- grow t.dur
  end;
  let at = Clock.now_ns () in
  t.at.(t.n) <- at;
  t.dur.(t.n) <- kernel_ns ();
  t.n <- t.n + 1;
  t.last <- Clock.now_ns ()

let tick t = if Clock.now_ns () - t.last >= interval_ns then sample t

(* First index whose sample was taken at or after [x]. *)
let first_at t x =
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if t.at.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 t.n

let factor t ~from_ns ~until_ns =
  if t.n = 0 then 1.0
  else
    let lo = first_at t (from_ns - window_ns) and hi = first_at t (until_ns + window_ns + 1) in
    let durs =
      if hi > lo then List.init (hi - lo) (fun k -> float_of_int t.dur.(lo + k))
      else
        let k = min lo (t.n - 1) in
        let k = if k > 0 && from_ns - t.at.(k - 1) < t.at.(k) - until_ns then k - 1 else k in
        [ float_of_int t.dur.(k) ]
    in
    Stats.median durs /. reference_ns
