(* Tests for the discrete-event core: deterministic event ordering,
   latency draws, the engine-backed network and consumer paths, the
   inline run of a synchronous call made from inside an event, the
   periodic clock events, and the observational equivalence of clocked
   and unclocked runs. *)
open Ldap
module Sim = Ldap_sim
module Resync = Ldap_resync
module Replication = Ldap_replication
module Sweep = Ldap_eval.Sweep

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dn = Dn.of_string_exn
let f = Filter.of_string_exn

let org = Entry.make (dn "o=xyz") [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]

let person name ?(dept = "100") () =
  Entry.make
    (dn (Printf.sprintf "cn=%s,o=xyz" name))
    [
      ("objectclass", [ "inetOrgPerson" ]);
      ("cn", [ name ]);
      ("sn", [ name ]);
      ("departmentNumber", [ dept ]);
    ]

let make_backend () =
  let b = Backend.create ~indexed:[ "departmentnumber" ] () in
  (match Backend.add_context b org with Ok () -> () | Error e -> failwith e);
  b

let apply b op = match Backend.apply b op with Ok _ -> () | Error e -> failwith e

let dept_query dept =
  Query.make ~base:(dn "o=xyz") (f (Printf.sprintf "(departmentNumber=%s)" dept))

(* --- Engine core ----------------------------------------------------- *)

let test_event_order () =
  let e = Sim.Engine.create () in
  let trace = ref [] in
  let mark label () = trace := (label, Sim.Engine.now e) :: !trace in
  Sim.Engine.schedule e ~time:5 (mark "a5");
  Sim.Engine.schedule e ~time:3 (mark "b3");
  Sim.Engine.schedule e ~time:5 (mark "c5");
  Sim.Engine.after e ~delay:1 (fun () ->
      mark "d1" ();
      (* Scheduling from inside an event interleaves by time. *)
      Sim.Engine.after e ~delay:3 (mark "e4"));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "time order, ties broken by scheduling order"
    [ ("d1", 1); ("b3", 3); ("e4", 4); ("a5", 5); ("c5", 5) ]
    (List.rev !trace);
  check_int "clock at last event" 5 (Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "queue drained: nothing left to run" 5 (List.length !trace)

let test_schedule_bounds () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~time:10 ignore;
  Sim.Engine.run e;
  check_bool "scheduling in the past rejected" true
    (match Sim.Engine.schedule e ~time:3 ignore with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* [after] clamps negative delays to zero instead. *)
  let fired = ref false in
  Sim.Engine.after e ~delay:(-5) (fun () -> fired := true);
  Sim.Engine.run e;
  check_bool "negative delay clamped to now" true !fired;
  check_int "clock unchanged by clamped event" 10 (Sim.Engine.now e)

(* A periodic event built on [schedule]: the thunk runs at now +
   [every], then every [every] ticks, until the next occurrence would
   fall after [until]. *)
let every e ~every ~until f =
  let rec tick () =
    f ();
    let next = Sim.Engine.now e + every in
    if next <= until then Sim.Engine.schedule e ~time:next tick
  in
  let first = Sim.Engine.now e + every in
  if first <= until then Sim.Engine.schedule e ~time:first tick

let test_every_and_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  every e ~every:10 ~until:35 (fun () -> incr count);
  Sim.Engine.run e;
  check_int "three firings within the bound" 3 !count;
  check_int "quiescent at the last occurrence" 30 (Sim.Engine.now e);
  let e2 = Sim.Engine.create () in
  let count2 = ref 0 in
  every e2 ~every:10 ~until:100 (fun () -> incr count2);
  Sim.Engine.run_until e2 ~time:45;
  check_int "four firings by 45" 4 !count2;
  check_int "clock advanced exactly to the bound" 45 (Sim.Engine.now e2);
  Sim.Engine.run e2;
  check_int "later ticks still pending" 10 !count2

let test_latency_draws () =
  let e = Sim.Engine.create ~seed:42 () in
  check_int "zero" 0 (Sim.Engine.draw e Sim.Latency.Zero);
  check_int "fixed" 7 (Sim.Engine.draw e (Sim.Latency.Fixed 7));
  for _ = 1 to 200 do
    let d = Sim.Engine.draw e (Sim.Latency.Uniform { lo = 2; hi = 8 }) in
    check_bool "uniform within bounds" true (d >= 2 && d <= 8)
  done;
  for _ = 1 to 200 do
    check_bool "exponential nonnegative" true
      (Sim.Engine.draw e (Sim.Latency.Exponential { mean = 5 }) >= 0)
  done;
  (* Same seed, same call sequence: identical draws. *)
  let a = Sim.Engine.create ~seed:9 () and b = Sim.Engine.create ~seed:9 () in
  for _ = 1 to 50 do
    check_int "deterministic stream"
      (Sim.Engine.draw a (Sim.Latency.Uniform { lo = 0; hi = 1000 }))
      (Sim.Engine.draw b (Sim.Latency.Uniform { lo = 0; hi = 1000 }))
  done

(* --- Engine-backed network ------------------------------------------- *)

let test_rpc_charges_round_trip () =
  (* The same exchange with and without an engine: identical result
     and accounting; only the engine advances virtual time. *)
  let serve () = 41 + 1 in
  let immediate = Network.create () in
  let r0 =
    Network.rpc immediate ~from:"c" ~host:"s" ~request_bytes:10
      ~reply_bytes:(fun r -> r) serve
  in
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  Network.set_link_latency net ~a:"c" ~b:"s" (Sim.Latency.Fixed 3);
  let r1 =
    Network.rpc net ~from:"c" ~host:"s" ~request_bytes:10
      ~reply_bytes:(fun r -> r) serve
  in
  check_bool "same result" true (r0 = Ok 42 && r1 = Ok 42);
  check_bool "same accounting" true (Network.stats immediate = Network.stats net);
  check_int "round trip charged" 6 (Sim.Engine.now engine)

let test_drop_reply_timing () =
  (* A dropped reply still runs the server thunk (its side effects
     stand) and the client only learns about the loss at the timeout. *)
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  Network.set_default_latency net (Sim.Latency.Fixed 4);
  let faults = Network.Faults.create () in
  Network.Faults.script faults [ Network.Faults.Drop_reply ];
  let served_at = ref (-1) in
  let r =
    Network.rpc net ~faults ~from:"c" ~host:"s" ~request_bytes:5
      ~reply_bytes:(fun () -> 5)
      (fun () -> served_at := Sim.Engine.now engine)
  in
  check_bool "timeout surfaced" true (r = Error Network.Timeout);
  check_int "served after one leg" 4 !served_at;
  check_int "client waited the full round trip" 8 (Sim.Engine.now engine);
  check_int "loss accounted" 1 (Network.stats net).Network.dropped_pdus

(* --- Synchronous calls from inside an event ---------------------------- *)

(* A loopback-style stack: one master holding one department-7 entry,
   reached over a lossy link with a scripted fault sequence. *)
let inline_stack ~engine =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let net = Network.create () in
  Option.iter (Network.attach_engine net) engine;
  Network.set_default_latency net (Sim.Latency.Fixed 3);
  let faults = Network.Faults.create () in
  Network.Faults.script faults
    Network.Faults.[ Drop_request; Drop_reply; Drop_request ];
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  (net, faults, transport)

(* Two RPCs (a dropped request, then a dropped reply) and one poll that
   retries past a dropped request; what each returned plus the
   network's loss and byte accounting. *)
let inline_calls net faults transport =
  let rpc () =
    Network.rpc net ~faults ~from:"c" ~host:"s" ~request_bytes:10
      ~reply_bytes:(fun r -> r) (fun () -> 42)
  in
  let r1 = rpc () in
  let r2 = rpc () in
  let consumer = Resync.Consumer.create (dept_query "7") in
  let poll =
    match Resync.Consumer.sync_over consumer transport ~host:"m" with
    | Ok o ->
        Ok
          ( o.Resync.Consumer.attempts,
            o.Resync.Consumer.backoff,
            Resync.Consumer.cookie consumer,
            Resync.Consumer.size consumer )
    | Error e -> Error (Resync.Consumer.sync_error_to_string e)
  in
  let stats = Network.stats net in
  (r1, r2, poll, stats.Network.sync_bytes, stats.Network.dropped_pdus)

let test_inline_from_event () =
  (* Inside an event the engine cannot be re-entered: [rpc] and
     [sync_over] complete on the spot, exactly as with no engine
     (backoff included), and leave the clock where the event found
     it. *)
  let net, faults, transport = inline_stack ~engine:None in
  let expected = inline_calls net faults transport in
  let engine = Sim.Engine.create () in
  let net, faults, transport = inline_stack ~engine:(Some engine) in
  let observed = ref None in
  Sim.Engine.schedule engine ~time:5 (fun () ->
      let r = inline_calls net faults transport in
      observed := Some (r, Sim.Engine.now engine));
  Sim.Engine.run engine;
  match !observed with
  | None -> Alcotest.fail "event never ran"
  | Some (r, now) ->
      let r1, r2, poll, bytes, dropped = r in
      let e1, e2, epoll, ebytes, edropped = expected in
      check_bool "rpc results as without an engine" true (r1 = e1 && r2 = e2);
      check_bool "faults surfaced" true
        (r1 = Error Network.Timeout && r2 = Error Network.Timeout);
      check_bool "poll outcome as without an engine" true (poll = epoll);
      check_bool "poll retried once" true
        (match poll with Ok (2, 1, Some _, 1) -> true | _ -> false);
      check_int "sync_bytes as without an engine" ebytes bytes;
      check_int "dropped_pdus as without an engine" edropped dropped;
      check_int "clock unchanged inside the event" 5 now;
      check_int "nothing left scheduled" 5 (Sim.Engine.now engine)

let test_inline_flag_restored () =
  (* An [await] that raises inside an event — its chain failed, or its
     continuation never fired — must not leave later exchanges from the
     same event running inline: the next [rpc_send] is scheduled. *)
  let net = Network.create () in
  check_bool "unclocked await of a chain that never completes" true
    (match Network.await net (fun _ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  Network.set_default_latency net (Sim.Latency.Fixed 3);
  let raised = ref [] and delivered_at = ref [] in
  let send () =
    Network.rpc_send net ~from:"c" ~host:"s" ~request_bytes:1
      ~reply_bytes:(fun () -> 1) ignore (fun _ ->
        delivered_at := Sim.Engine.now engine :: !delivered_at)
  in
  Sim.Engine.schedule engine ~time:10 (fun () ->
      (match
         Network.rpc net ~from:"c" ~host:"s" ~request_bytes:1
           ~reply_bytes:(fun () -> 1) (fun () -> failwith "serve")
       with
      | _ -> ()
      | exception Failure _ -> raised := "chain" :: !raised);
      send ();
      (match Network.await net (fun _ -> ()) with
      | () -> ()
      | exception Invalid_argument _ -> raised := "never" :: !raised);
      send ();
      check_bool "both sends still pending in the event" true (!delivered_at = []));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "both awaits raised" [ "never"; "chain" ] !raised;
  Alcotest.(check (list int)) "sends delivered a round trip later" [ 16; 16 ]
    !delivered_at

(* --- Backoff as virtual time (the satellite fix) --------------------- *)

let test_backoff_advances_clock () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  let faults = Network.Faults.create () in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let consumer = Resync.Consumer.create (dept_query "7") in
  (match Resync.Consumer.sync_over consumer transport ~host:"m" with
  | Ok _ -> ()
  | Error e -> failwith (Resync.Consumer.sync_error_to_string e));
  let t0 = Sim.Engine.now engine in
  Network.Faults.script faults
    [ Network.Faults.Drop_request; Network.Faults.Drop_request ];
  let check_outcome label t0 = function
    | Ok o ->
        check_int (label ^ ": three attempts") 3 o.Resync.Consumer.attempts;
        (* Links default to zero latency, so every tick of elapsed
           virtual time is backoff: 1 after the first failure, 2 after
           the second. *)
        check_int (label ^ ": backoff stat") 3 o.Resync.Consumer.backoff;
        check_int (label ^ ": stat equals elapsed virtual time")
          (Sim.Engine.now engine - t0) o.Resync.Consumer.backoff
    | Error e -> failwith (Resync.Consumer.sync_error_to_string e)
  in
  check_outcome "poll" t0 (Resync.Consumer.sync_over consumer transport ~host:"m");
  (* A persist connect retries through the same loop and timer. *)
  let t1 = Sim.Engine.now engine in
  Network.Faults.script faults
    [ Network.Faults.Drop_request; Network.Faults.Drop_request ];
  check_outcome "persist" t1
    (Resync.Consumer.connect_persist consumer transport ~host:"m")

let test_replica_backoff_stat () =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  let net = Network.create () in
  let engine = Sim.Engine.create () in
  Network.attach_engine net engine;
  let faults = Network.Faults.create () in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let replica =
    Replication.Filter_replica.create_over ~host:"r" transport ~master_host:"m"
  in
  (match Replication.Filter_replica.install_filter replica (dept_query "7") with
  | Ok () -> ()
  | Error e -> failwith e);
  apply b (Update.add (person "b" ~dept:"7" ()));
  let t0 = Sim.Engine.now engine in
  Network.Faults.script faults
    [ Network.Faults.Drop_request; Network.Faults.Drop_request ];
  Replication.Filter_replica.sync replica;
  let stats = Replication.Filter_replica.stats replica in
  check_int "two retries" 2 stats.Replication.Stats.sync_retries;
  check_int "backoff ticks equal elapsed virtual time"
    (Sim.Engine.now engine - t0) stats.Replication.Stats.sync_backoff_ticks

(* --- Periodic clock events ------------------------------------------- *)

let test_scheduled_expiry () =
  let b = make_backend () in
  let master = Resync.Master.create b in
  for _ = 1 to 3 do
    match
      Resync.Master.handle master
        { Resync.Protocol.mode = Resync.Protocol.Poll; cookie = None }
        (dept_query "7")
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  check_int "three sessions" 3 (Resync.Master.session_count master);
  let engine = Sim.Engine.create () in
  every engine ~every:5 ~until:20 (fun () ->
      Resync.Server.expire (Resync.Master.server master) ~idle_limit:0);
  Sim.Engine.run engine;
  check_int "expired on the clock" 0 (Resync.Master.session_count master);
  check_int "timer ran to its bound" 20 (Sim.Engine.now engine)

(* --- Clocked/unclocked equivalence property ---------------------------
   For the same seed (same update stream, same fault decisions) a run
   with an engine and one without must leave every consumer with
   identical content, cookie and traffic accounting: virtual time
   reorders nothing observable.  Each round exercises every derived
   synchronous form: a consumer poll, a filter replica round and a
   persist connect. *)

let apply_scripted_ops b prng =
  for _ = 1 to 4 do
    let name = Printf.sprintf "q%d" (Ldap_dirgen.Prng.int prng 12) in
    match Ldap_dirgen.Prng.int prng 3 with
    | 0 ->
        ignore
          (Backend.apply b
             (Update.add
                (person name
                   ~dept:(string_of_int (7 + Ldap_dirgen.Prng.int prng 2))
                   ())))
    | 1 ->
        ignore
          (Backend.apply b
             (Update.modify
                (dn (Printf.sprintf "cn=%s,o=xyz" name))
                [ Update.replace_values "mail" [ Printf.sprintf "%s@x" name ] ]))
    | _ ->
        ignore (Backend.apply b (Update.delete (dn (Printf.sprintf "cn=%s,o=xyz" name))))
  done

let run_variant ~engine seed =
  let b = make_backend () in
  apply b (Update.add (person "a" ~dept:"7" ()));
  apply b (Update.add (person "b" ~dept:"8" ()));
  let net = Network.create () in
  if engine then begin
    let e = Sim.Engine.create ~seed () in
    Network.attach_engine net e;
    Network.set_default_latency net (Sim.Latency.Uniform { lo = 1; hi = 6 })
  end;
  (* Fault decisions come from their own stream, independent of the
     engine's latency draws, so both variants see the same outcomes. *)
  let fault_prng = Ldap_dirgen.Prng.create (seed + 1) in
  let faults =
    Network.Faults.create ~drop_request:0.15 ~drop_reply:0.15
      ~roll:(fun () -> Ldap_dirgen.Prng.float fault_prng 1.0)
      ()
  in
  let transport = Resync.Transport.create ~faults net in
  Resync.Transport.add_master transport ~name:"m" (Resync.Master.create b);
  let consumer = Resync.Consumer.create (dept_query "7") in
  let replica =
    Replication.Filter_replica.create_over ~host:"r" transport ~master_host:"m"
  in
  let installed = Replication.Filter_replica.install_filter replica (dept_query "8") in
  let sorted c =
    List.sort (fun a b -> Dn.compare (Entry.dn a) (Entry.dn b)) (Resync.Consumer.entries c)
  in
  let op_prng = Ldap_dirgen.Prng.create (seed + 2) in
  let persisted = ref [] in
  for _round = 1 to 6 do
    apply_scripted_ops b op_prng;
    ignore (Resync.Consumer.sync_over ~max_attempts:6 consumer transport ~host:"m");
    Replication.Filter_replica.sync replica;
    (* A fresh persist session per round, paused once established: its
       later pushes stall at the master instead of crossing the lossy
       link, so the pushes' delivery timing cannot diverge. *)
    let pc = Resync.Consumer.create (dept_query "7") in
    let r =
      Result.map
        (fun o -> o.Resync.Consumer.attempts)
        (Resync.Consumer.connect_persist ~max_attempts:6 pc transport ~host:"m")
    in
    Resync.Consumer.pause_connection pc;
    persisted := (r, sorted pc, Resync.Consumer.cookie pc) :: !persisted
  done;
  let replica_entries =
    Option.map sorted (Replication.Filter_replica.consumer_for replica (dept_query "8"))
  in
  ( (sorted consumer, Resync.Consumer.cookie consumer, (Network.stats net).Network.sync_bytes),
    (installed, replica_entries, Replication.Filter_replica.stats replica),
    !persisted )

let same_entries a b = List.length a = List.length b && List.for_all2 Entry.equal a b

let prop_engine_matches_legacy =
  QCheck.Test.make ~name:"sim: engine and legacy paths are observably identical"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let (e_entries, e_cookie, e_bytes), (e_inst, e_rep, e_stats), e_persist =
        run_variant ~engine:true seed
      in
      let (l_entries, l_cookie, l_bytes), (l_inst, l_rep, l_stats), l_persist =
        run_variant ~engine:false seed
      in
      e_cookie = l_cookie && e_bytes = l_bytes && same_entries e_entries l_entries
      && e_inst = l_inst && e_stats = l_stats
      && Option.equal same_entries e_rep l_rep
      && List.length e_persist = List.length l_persist
      && List.for_all2
           (fun (er, ee, ec) (lr, le, lc) -> er = lr && ec = lc && same_entries ee le)
           e_persist l_persist)

(* --- Latency/staleness sweep shape ----------------------------------- *)

let test_latency_staleness_ordering () =
  let config = Sweep.lat_smoke_config in
  let points = Sweep.latency_staleness ~config () in
  check_int "four variants" 4 (List.length points);
  let find shape faults =
    List.find
      (fun (p : Sweep.lat_point) ->
        p.Sweep.lp_shape = shape && p.Sweep.lp_faults = faults)
      points
  in
  let tree_shape = Printf.sprintf "tree%d" config.Sweep.lat_arity in
  let star_clean = find "star" "clean" and tree_clean = find tree_shape "clean" in
  let star_lossy = find "star" "lossy" and tree_lossy = find tree_shape "lossy" in
  List.iter
    (fun (p : Sweep.lat_point) ->
      check_bool "polls sampled" true (p.Sweep.lp_polls > 0);
      check_bool "staleness sampled" true (p.lp_stale_samples > 0);
      check_bool "nonzero response time" true (p.lp_resp_p50 > 0);
      check_bool "nonzero staleness" true (p.lp_stale_p50 > 0);
      check_bool "percentiles ordered" true
        (p.lp_resp_p50 <= p.lp_resp_p90
        && p.lp_resp_p90 <= p.lp_resp_p99
        && p.lp_resp_p99 <= p.lp_resp_max
        && p.lp_stale_p50 <= p.lp_stale_p90
        && p.lp_stale_p90 <= p.lp_stale_p99
        && p.lp_stale_p99 <= p.lp_stale_max))
    points;
  check_bool "tree staleness >= star (extra tier)" true
    (tree_clean.Sweep.lp_stale_p90 >= star_clean.Sweep.lp_stale_p90);
  check_bool "lossy response >= clean (retries burn virtual time)" true
    (star_lossy.Sweep.lp_resp_p90 >= star_clean.Sweep.lp_resp_p90
    && tree_lossy.Sweep.lp_resp_p90 >= tree_clean.Sweep.lp_resp_p90);
  (* Same config, same seed: the sweep is deterministic. *)
  let points2 = Sweep.latency_staleness ~config () in
  check_bool "deterministic rerun" true (points = points2)

(* --- Cancellable events ----------------------------------------------- *)

let test_cancellable_events () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let mark label () = fired := label :: !fired in
  let h1 = Sim.Engine.schedule_cancellable e ~time:5 (mark "a") in
  let _h2 = Sim.Engine.schedule_cancellable e ~time:7 (mark "b") in
  let h3 = Sim.Engine.schedule_cancellable e ~time:9 (mark "c") in
  Sim.Engine.cancel h1;
  Sim.Engine.cancel h3;
  Sim.Engine.cancel h3;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "only the live event fired" [ "b" ] !fired;
  (* The queue entry stays: the clock still visits time 9 (determinism
     preserved), but the thunk is a no-op. *)
  check_int "cancelled event still queued" 9 (Sim.Engine.now e)

(* A periodic series keeps the handle of its next occurrence, the way a
   topology leaf's poll loop does: cancelling it from inside an event
   stops the whole chain of reschedules. *)
let test_cancellable_series () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let next = ref None in
  let rec tick () =
    incr count;
    next := Some (Sim.Engine.schedule_cancellable e ~time:(Sim.Engine.now e + 10) tick)
  in
  next := Some (Sim.Engine.schedule_cancellable e ~time:10 tick);
  Sim.Engine.schedule e ~time:35 (fun () -> Option.iter Sim.Engine.cancel !next);
  Sim.Engine.run e;
  check_int "ticks before cancellation" 3 !count;
  let h2 = Sim.Engine.schedule_cancellable e ~time:(Sim.Engine.now e + 5) (fun () -> incr count) in
  Sim.Engine.cancel h2;
  Sim.Engine.run e;
  check_int "cancelled event never fires" 3 !count

(* --- Event queue order ------------------------------------------------

   A random script of [schedule]s (some of whose events schedule a
   child when they fire) and [run_until]s a few ticks ahead, with
   delays of 0 to 3 ticks so many events share a time, runs against the
   engine and against a reference that keeps the pending events in a
   plain list and always takes the least [(time, seq)] — seq counting
   schedules in order.  Both must fire the same events at the same
   times. *)

type queue_op = Sched of int * int option | Advance of int

let queue_ops =
  let open QCheck.Gen in
  let delay = int_bound 3 in
  list_size (int_range 0 300)
    (frequency
       [
         (3, map (fun d -> Sched (d, None)) delay);
         (1, map2 (fun d c -> Sched (d, Some c)) delay delay);
         (3, map (fun d -> Advance d) (int_bound 2));
       ])

let reference_fires ops =
  let pending = ref [] and seq = ref 0 and now = ref 0 and fired = ref [] in
  let add time child =
    pending := (time, !seq, child) :: !pending;
    incr seq
  in
  let least () =
    List.fold_left
      (fun m ((t', s', _) as x) ->
        match m with Some (t, s, _) when t < t' || (t = t' && s < s') -> m | _ -> Some x)
      None !pending
  in
  let rec run_until bound =
    match least () with
    | Some (time, s, child) when time <= bound ->
        pending := List.filter (fun (_, s', _) -> s' <> s) !pending;
        now := time;
        fired := (s, time) :: !fired;
        Option.iter (fun c -> add (time + c) None) child;
        run_until bound
    | _ -> now := max !now bound
  in
  List.iter
    (function Sched (d, child) -> add (!now + d) child | Advance d -> run_until (!now + d))
    ops;
  run_until max_int;
  List.rev !fired

let engine_fires ops =
  let e = Sim.Engine.create () in
  let seq = ref 0 and fired = ref [] in
  let rec add delay child =
    let s = !seq in
    incr seq;
    Sim.Engine.after e ~delay (fun () ->
        fired := (s, Sim.Engine.now e) :: !fired;
        Option.iter (fun c -> add c None) child)
  in
  List.iter
    (function
      | Sched (d, child) -> add d child
      | Advance d -> Sim.Engine.run_until e ~time:(Sim.Engine.now e + d))
    ops;
  Sim.Engine.run e;
  List.rev !fired

let prop_event_queue_order =
  QCheck.Test.make ~name:"sim: events fire in (time, seq) order" ~count:300
    (QCheck.make queue_ops)
    (fun ops -> engine_fires ops = reference_fires ops)

let suite =
  [
    Alcotest.test_case "event order deterministic" `Quick test_event_order;
    Alcotest.test_case "cancellable events" `Quick test_cancellable_events;
    Alcotest.test_case "cancellable series" `Quick test_cancellable_series;
    Alcotest.test_case "schedule bounds" `Quick test_schedule_bounds;
    Alcotest.test_case "every + run_until" `Quick test_every_and_run_until;
    Alcotest.test_case "latency draws" `Quick test_latency_draws;
    Alcotest.test_case "rpc charges round trip" `Quick test_rpc_charges_round_trip;
    Alcotest.test_case "drop_reply timing" `Quick test_drop_reply_timing;
    Alcotest.test_case "inline from event" `Quick test_inline_from_event;
    Alcotest.test_case "inline flag restored" `Quick test_inline_flag_restored;
    Alcotest.test_case "backoff advances clock" `Quick test_backoff_advances_clock;
    Alcotest.test_case "replica backoff stat" `Quick test_replica_backoff_stat;
    Alcotest.test_case "scheduled expiry" `Quick test_scheduled_expiry;
    Alcotest.test_case "latency/staleness ordering" `Quick test_latency_staleness_ordering;
    QCheck_alcotest.to_alcotest prop_engine_matches_legacy;
    QCheck_alcotest.to_alcotest prop_event_queue_order;
  ]
