module Faults = struct
  type crash_outcome = Keep_all | Lose_unsynced | Torn_tail

  type t = {
    torn_tail : float;
    short_read : float;
    roll : (unit -> float) option;
    mutable scripted : crash_outcome list;
  }

  let create ?(torn_tail = 0.) ?(short_read = 0.) ?roll () =
    if short_read >= 1. then invalid_arg "Medium.Faults.create: short_read must be below 1";
    { torn_tail; short_read; roll; scripted = [] }

  let none = create ()

  let script t outcomes = t.scripted <- t.scripted @ outcomes

  let next_crash t =
    match t.scripted with
    | o :: rest ->
        t.scripted <- rest;
        o
    | [] -> (
        match t.roll with
        | None -> Lose_unsynced
        | Some roll ->
            let x = roll () in
            if x < t.torn_tail then Torn_tail else Lose_unsynced)

  let read_fraction t =
    match t.roll with
    | None -> None
    | Some roll ->
        if t.short_read > 0. && roll () < t.short_read then Some (roll ())
        else None
end

type file = {
  buf : Buffer.t;
  mutable synced_len : int;
  (* Byte length of the first append since the last sync — the one a
     torn-tail crash tears — or -1 when there is none.  Only the first
     matters to {!crash}; -1 rather than 0 keeps a zero-byte append
     counting as unsynced, as it always has. *)
  mutable first_unsynced : int;
}

type t = {
  table : (string, file) Hashtbl.t;
  faults : Faults.t;
}

(* --- Construction ---------------------------------------------------- *)

let memory ?(faults = Faults.none) () =
  { table = Hashtbl.create 8; faults }

(* --- Operations ------------------------------------------------------ *)

let file t name =
  match Hashtbl.find_opt t.table name with
  | Some f -> f
  | None ->
      let f = { buf = Buffer.create 256; synced_len = 0; first_unsynced = -1 } in
      Hashtbl.replace t.table name f;
      f

let note_unsynced f len = if f.first_unsynced < 0 then f.first_unsynced <- len

let append t ~name bytes =
  let f = file t name in
  Buffer.add_string f.buf bytes;
  note_unsynced f (String.length bytes)

let append_sub t ~name bytes ~pos ~len =
  let f = file t name in
  Buffer.add_subbytes f.buf bytes pos len;
  note_unsynced f len

let sync t ~name =
  match Hashtbl.find_opt t.table name with
  | None -> ()
  | Some f ->
      f.synced_len <- Buffer.length f.buf;
      f.first_unsynced <- -1

let write_atomic_sub t ~name bytes ~pos ~len =
  let f = file t name in
  Buffer.clear f.buf;
  Buffer.add_subbytes f.buf bytes pos len;
  f.synced_len <- len;
  f.first_unsynced <- -1

let read t ~name =
  match Hashtbl.find_opt t.table name with
  | None -> None
  | Some f -> (
      let s = Buffer.contents f.buf in
      match Faults.read_fraction t.faults with
      | None -> Some s
      | Some frac ->
          let keep = int_of_float (frac *. float_of_int (String.length s)) in
          Some (String.sub s 0 (min keep (String.length s))))

let size t ~name =
  match Hashtbl.find_opt t.table name with
  | None -> 0
  | Some f -> Buffer.length f.buf

(* Each read draws its short-read fault afresh, and [create] keeps the
   probability below 1, so the loop ends. *)
let rec read_whole t ~name =
  match read t ~name with
  | Some s when String.length s < size t ~name -> read_whole t ~name
  | r -> r

let truncate t ~name n =
  match Hashtbl.find_opt t.table name with
  | None -> ()
  | Some f ->
      let n = min n (Buffer.length f.buf) in
      Buffer.truncate f.buf n;
      f.synced_len <- min f.synced_len n;
      f.first_unsynced <- -1

let remove t ~name = Hashtbl.remove t.table name

let crash t =
  Hashtbl.iter
    (fun _ f ->
      if f.first_unsynced >= 0 then begin
        (match Faults.next_crash t.faults with
        | Faults.Keep_all -> f.synced_len <- Buffer.length f.buf
        | Faults.Lose_unsynced -> Buffer.truncate f.buf f.synced_len
        | Faults.Torn_tail ->
            let first = f.first_unsynced in
            (* Keep a strict prefix of the first unsynced append:
               deterministic, and empty when it was a 1-byte write. *)
            let torn =
              match t.faults.Faults.roll with
              | Some roll when first > 1 ->
                  1 + int_of_float (roll () *. float_of_int (first - 2))
              | _ -> first / 2
            in
            Buffer.truncate f.buf (f.synced_len + min torn (max 0 (first - 1))));
        f.synced_len <- Buffer.length f.buf;
        f.first_unsynced <- -1
      end)
    t.table
