type t = {
  clock : Clock.t;
  queue : Event.t;
  mutable rng : int64;
  mutable running : bool;
}

let create ?(seed = 0) () =
  {
    clock = Clock.create ();
    queue = Event.create ();
    rng = Int64.of_int seed;
    running = false;
  }

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

let next_int64 t =
  t.rng <- Int64.add t.rng golden;
  let z = t.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let float01 t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let draw t lat = Latency.draw lat ~roll:(fun () -> float01 t)

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
