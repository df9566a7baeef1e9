type t = {
  clock : Clock.t;
  queue : Event.t;
  rng : Bytes.t;
      (* the splitmix64 state: 8 bytes read and written unboxed, so a
         draw boxes no [int64] *)
  mutable running : bool;
}

let create ?(seed = 0) () =
  let rng = Bytes.create 8 in
  Bytes.set_int64_ne rng 0 (Int64.of_int seed);
  { clock = Clock.create (); queue = Event.create (); rng; running = false }

let now t = Clock.now t.clock

let schedule t ~time run =
  if time < now t then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %d is before now %d" time (now t));
  Event.add t.queue ~time run

let after t ~delay run = schedule t ~time:(now t + max 0 delay) run

(* splitmix64, same constants as Ldap_dirgen.Prng; ldap_sim sits below
   ldap in the dependency order so it keeps its own copy. *)
let golden = 0x9E3779B97F4A7C15L

(* The next uniform roll in [0, 1).  Inlined into [draw], so neither
   the state nor the roll is ever boxed. *)
let[@inline] float01 t =
  let z = Int64.add (Bytes.get_int64_ne t.rng 0) golden in
  Bytes.set_int64_ne t.rng 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0 (* 2^53 *)

(* [Zero] and [Fixed] take no roll, so switching a link between
   deterministic and random latencies leaves other links' draws
   where they were. *)
let draw t (lat : Latency.t) =
  match lat with
  | Zero -> 0
  | Fixed d -> max 0 d
  | Uniform { lo; hi } ->
      if hi < lo then invalid_arg "Engine.draw: empty uniform range";
      let lo = max 0 lo in
      let hi = max lo hi in
      lo + int_of_float (float01 t *. float_of_int (hi - lo + 1))
  | Exponential { mean } ->
      if mean <= 0 then 0
      else
        (* The roll is in [0,1), so 1 - roll is in (0,1] and its log
           is finite. *)
        let d = -.float_of_int mean *. log (1.0 -. float01 t) in
        max 0 (int_of_float (Float.round d))

let step t =
  if Event.is_empty t.queue then false
  else begin
    let time = Event.min_time t.queue in
    let run = Event.pop t.queue in
    Clock.advance_to t.clock time;
    run ();
    true
  end

let run t =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      while step t do
        ()
      done)

let run_until t ~time =
  if t.running then invalid_arg "Engine.run_until: engine is already running";
  if time < now t then
    invalid_arg
      (Printf.sprintf "Engine.run_until: time %d is before now %d" time (now t));
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      while (not (Event.is_empty t.queue)) && Event.min_time t.queue <= time do
        ignore (step t)
      done;
      Clock.advance_to t.clock time)

let running t = t.running
