module Der = Ldap.Ber_codec.Der

type t = {
  medium : Medium.t;
  name : string;
  sync : bool;
  mutable gen : int;
  mutable header_written : bool;
}

let wal_file t = t.name ^ ".wal"
let snap_file t = t.name ^ ".snap"

let create ?(sync = true) medium ~name =
  { medium; name; sync; gen = 0; header_written = false }

(* The first record of every log generation carries the generation
   number; recovery matches it against the snapshot's. *)
let write_header t gen =
  Wal.append_w ~sync:true t.medium ~name:(wal_file t) (fun w -> Der.W.integer w gen)

let parse_header payload =
  match Der.read_integer (Der.cursor payload) with
  | gen -> Some gen
  | exception Ldap.Ber_codec.Decode_error _ -> None

let ensure_header t =
  if not t.header_written then begin
    if Medium.size t.medium ~name:(wal_file t) = 0 then
      write_header t t.gen;
    t.header_written <- true
  end

let append_w t emit =
  ensure_header t;
  Wal.append_w ~sync:t.sync t.medium ~name:(wal_file t) emit

(* Snapshot payload layout: SEQUENCE-free concatenation is avoided on
   purpose — the generation travels as a DER INTEGER followed by the
   client payload as a DER OCTET STRING, so both sides are
   length-delimited.  [emit] writes the client payload backwards into
   the snapshot writer's reused buffer; it is wrapped as the OCTET
   STRING and the generation prepended in place, so the image reaches
   the medium with one copy, and the tail [emit] knows the CRC of
   stays the image's tail. *)
let parse_snap s =
  let c = Der.cursor s in
  match
    let gen = Der.read_integer c in
    let payload = Der.read_octets c in
    (gen, payload)
  with
  | parsed -> Some parsed
  | exception Ldap.Ber_codec.Decode_error _ -> None

let checkpoint_w t emit =
  t.gen <- t.gen + 1;
  Snapshot.write_w t.medium ~name:(snap_file t) (fun w ->
      let m = Der.W.mark w in
      let tail = emit w in
      Der.W.close_octets w m;
      Der.W.integer w t.gen;
      tail);
  Medium.truncate t.medium ~name:(wal_file t) 0;
  write_header t t.gen;
  t.header_written <- true

type recovery = {
  snapshot : string option;
  records : string list;
  truncated : bool;
  truncation_point : int;
  stale : int;
  wal_bytes : int;
  snapshot_bytes : int;
}

let recover t =
  let snap_gen, snapshot =
    match Snapshot.read t.medium ~name:(snap_file t) with
    | None -> (0, None)
    | Some s -> (
        match parse_snap s with
        | Some (gen, payload) -> (gen, Some payload)
        | None -> (0, None))
  in
  let wal = Wal.recover t.medium ~name:(wal_file t) in
  let wal_gen, body =
    match wal.Wal.records with
    | header :: rest -> (
        match parse_header header with
        | Some gen -> (gen, rest)
        | None -> (-1, []))
    | [] -> (snap_gen, [])
  in
  let stale, records, truncation_point =
    if wal_gen = snap_gen then (0, body, wal.Wal.valid_len)
    else begin
      (* Log from another generation (or unparseable header): a crash
         landed between snapshot install and log reset.  Discard it
         and restart the log at the snapshot's generation. *)
      Medium.truncate t.medium ~name:(wal_file t) 0;
      write_header t snap_gen;
      (List.length body, [], Medium.size t.medium ~name:(wal_file t))
    end
  in
  t.gen <- snap_gen;
  t.header_written <- Medium.size t.medium ~name:(wal_file t) > 0;
  {
    snapshot;
    records;
    truncated = wal.Wal.truncated;
    truncation_point;
    stale;
    wal_bytes = Medium.size t.medium ~name:(wal_file t);
    snapshot_bytes = Medium.size t.medium ~name:(snap_file t);
  }

let open_state t ~populated ~snapshot ~replay ~attach ~checkpoint =
  let ( let* ) = Result.bind in
  let recovery = recover t in
  let fresh = Option.is_none recovery.snapshot && recovery.records = [] in
  let* () =
    if fresh then Ok ()
    else if populated then
      Error ("Store.open_state: " ^ t.name ^ " holds state, and the value opened over it is not empty")
    else
      let* () = match recovery.snapshot with None -> Ok () | Some payload -> snapshot payload in
      List.fold_left (fun acc payload -> Result.bind acc (fun () -> replay payload)) (Ok ()) recovery.records
  in
  attach ();
  if fresh then checkpoint ();
  Ok recovery

let destroy t =
  Medium.remove t.medium ~name:(wal_file t);
  Medium.remove t.medium ~name:(snap_file t);
  t.gen <- 0;
  t.header_written <- false
