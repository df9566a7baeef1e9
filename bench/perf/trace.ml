type name = int

let span_names =
  [
    "client.query";
    "filter_replica.answer";
    "backend.search";
    "controller.observe";
    "controller.drift_check";
    "controller.adapt";
    "endpoint.estimate";
    "client.update";
    "backend.apply";
    "master.dispatch";
    "endpoint.serve_root";
    "endpoint.serve_node";
    "endpoint.serve_router";
    "endpoint.tree";
    "router.apply";
    "router.search";
    "topology.restart_leaf";
    "topology.checkpoint_leaves";
    "bench.verify";
  ]

let names = Array.of_list span_names
let n_names = Array.length names

let name s =
  let rec go i =
    if i = n_names then invalid_arg ("Trace.name: unknown span " ^ s)
    else if String.equal names.(i) s then i
    else go (i + 1)
  in
  go 0


(* A growable int column; grows by doubling so amortized pushes cost
   one store. *)
type col = { mutable data : int array; mutable len : int }

let col () = { data = Array.make 65536 0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let bigger = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  c.data.(c.len) <- v;
  c.len <- c.len + 1

let max_depth = 64

type t = {
  on : bool;
  nm : col;
  parent : col;
  req : col;
  start : col;
  dur : col;
  words : col;  (* minor words at start, then inclusive words *)
  stack : int array;
  child_ns : int array;
  child_words : int array;
  mutable depth : int;
  mutable request : int;
  mutable top_ns : int;
  calls : int array;
  self_ns : int array;
  self_words : int array;
}

let create ~enabled =
  let c () = if enabled then col () else { data = [||]; len = 0 } in
  {
    on = enabled;
    nm = c ();
    parent = c ();
    req = c ();
    start = c ();
    dur = c ();
    words = c ();
    stack = Array.make max_depth 0;
    child_ns = Array.make max_depth 0;
    child_words = Array.make max_depth 0;
    depth = 0;
    request = 0;
    top_ns = 0;
    calls = Array.make n_names 0;
    self_ns = Array.make n_names 0;
    self_words = Array.make n_names 0;
  }

let set_request t r = t.request <- r
let top_level_ns t = t.top_ns
let minor_words () = int_of_float (Gc.minor_words ())

let enter t n =
  if t.on then begin
    if t.depth = max_depth then failwith "Trace.enter: span stack overflow";
    let i = t.nm.len in
    push t.nm n;
    push t.parent (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    push t.req t.request;
    push t.dur 0;
    push t.words (minor_words ());
    push t.start (Clock.now_ns ());
    t.stack.(t.depth) <- i;
    t.child_ns.(t.depth) <- 0;
    t.child_words.(t.depth) <- 0;
    t.depth <- t.depth + 1
  end

let leave_as t n =
  if t.on then begin
    let stop = Clock.now_ns () in
    if t.depth = 0 then failwith "Trace.leave: no open span";
    t.depth <- t.depth - 1;
    let d = t.depth in
    let i = t.stack.(d) in
    let dur = stop - t.start.data.(i) in
    let w = minor_words () - t.words.data.(i) in
    t.nm.data.(i) <- n;
    t.dur.data.(i) <- dur;
    t.words.data.(i) <- w;
    t.calls.(n) <- t.calls.(n) + 1;
    t.self_ns.(n) <- t.self_ns.(n) + dur - t.child_ns.(d);
    t.self_words.(n) <- t.self_words.(n) + w - t.child_words.(d);
    if d = 0 then t.top_ns <- t.top_ns + dur
    else begin
      t.child_ns.(d - 1) <- t.child_ns.(d - 1) + dur;
      t.child_words.(d - 1) <- t.child_words.(d - 1) + w
    end
  end

let leave t = if t.on then leave_as t t.nm.data.(t.stack.(t.depth - 1))

let within t n f =
  if not t.on then f ()
  else begin
    enter t n;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  end

type summary = {
  calls : int;
  self_ns : int;
  self_words : int;
  durations_ns : float array;
}

let summary (t : t) n =
  let count = t.calls.(n) in
  let durations = Array.make count 0.0 in
  let k = ref 0 in
  for i = 0 to t.nm.len - 1 do
    if t.nm.data.(i) = n && !k < count then begin
      durations.(!k) <- float_of_int t.dur.data.(i);
      incr k
    end
  done;
  Array.sort compare durations;
  {
    calls = count;
    self_ns = t.self_ns.(n);
    self_words = t.self_words.(n);
    durations_ns = durations;
  }

let reset t =
  if t.depth <> 0 then failwith "Trace.reset: spans still open";
  List.iter (fun c -> c.len <- 0) [ t.nm; t.parent; t.req; t.start; t.dur; t.words ];
  t.top_ns <- 0;
  Array.fill t.calls 0 n_names 0;
  Array.fill t.self_ns 0 n_names 0;
  Array.fill t.self_words 0 n_names 0

let tsv_header = "workload\tindex\tparent\trequest\tname\tstart_ns\tduration_ns\tminor_words\n"

let write_tsv t oc ~workload =
  let t0 = if t.start.len > 0 then t.start.data.(0) else 0 in
  for i = 0 to t.nm.len - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n" workload i t.parent.data.(i)
      t.req.data.(i) names.(t.nm.data.(i)) (t.start.data.(i) - t0)
      t.dur.data.(i) t.words.data.(i)
  done
