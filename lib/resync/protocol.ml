type mode = Poll | Persist | Sync_end

type request = { mode : mode; cookie : string option }

(* --- Cookies ----------------------------------------------------------
   Every tier — the root master and intermediate topology nodes — issues
   cookies in the same [rs:<session id>:<csn>] form, so a cookie minted
   anywhere parses anywhere.  Session ids start at 1; id 0 is reserved
   as the "foreign session" marker used when a consumer re-parents: the
   CSN (the globally meaningful progress marker) is kept, the dead
   server's session id is discarded, and the new server sees an unknown
   session and resynchronizes degraded from that CSN. *)

(* The digits go straight into the one result string. *)
let cookie_of ~id ~csn =
  let module C = Ldap.Csn in
  let csn = C.to_int csn in
  let wi = C.decimal_width id in
  let n = 3 + wi + 1 + C.decimal_width csn in
  let b = Bytes.create n in
  Bytes.unsafe_blit_string "rs:" 0 b 0 3;
  C.write_decimal b ~stop:(3 + wi) id;
  Bytes.unsafe_set b (3 + wi) ':';
  C.write_decimal b ~stop:n csn;
  Bytes.unsafe_to_string b

(* The decimal number spelled by [s.[i]] up to (not including) [stop]:
   one or more ASCII digits and nothing else, no larger than [max_int].
   [-1] when the span is empty, holds anything but a digit, or
   overflows — OCaml literal syntax (sign, [0x], [0b], [_]) included. *)
let rec digits s i stop n =
  if i = stop then n
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if n > (max_int - d) / 10 then -1 else digits s (i + 1) stop ((10 * n) + d)
    | _ -> -1

let decimal s i stop = if i >= stop then -1 else digits s i stop 0

(* The first index at or after [i] holding [c], or the length of [s]. *)
let rec index_char c s i = if i >= String.length s || s.[i] = c then i else index_char c s (i + 1)

let parse_cookie s =
  let n = String.length s in
  if n < 3 || s.[0] <> 'r' || s.[1] <> 's' || s.[2] <> ':' then None
  else
    let c = index_char ':' s 3 in
    let id = decimal s 3 c and csn = decimal s (c + 1) n in
    if id < 0 || csn < 0 then None else Some (id, Ldap.Csn.of_int csn)

let reparent_cookie s =
  match parse_cookie s with
  | Some (_, csn) -> Some (cookie_of ~id:0 ~csn)
  | None -> None

(* --- Composite cookies ------------------------------------------------
   A sharded deployment has no single CSN stream: each write master
   advances its own.  The router therefore hands consumers a composite
   cookie interleaving one ordinary [rs:...] component per shard, keyed
   by shard id: [rsm:<shard>@rs:<id>:<csn>|<shard>@rs:...].  Components
   are sorted by shard id so equal session states print identically.  A
   shard the consumer has never exchanged with simply has no component;
   the router's next fan-out starts that shard's session from scratch.
   Resume-ordering discipline lives at the router: a component may only
   be replaced by a newer one when the matching shard's actions were
   delivered in the same merged reply (see [Ldap_shard.Router]). *)

let composite_prefix = "rsm:"

let is_composite_cookie s = String.starts_with ~prefix:composite_prefix s

let composite_cookie components =
  let components =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) components
  in
  composite_prefix
  ^ String.concat "|" (List.map (fun (shard, c) -> string_of_int shard ^ "@" ^ c) components)

(* A component's shard id runs from [i] to its '@', its cookie from
   there to the next '|' or the end. *)
let is_canonical_composite s =
  let n = String.length s in
  let rec component i prev =
    let at = index_char '@' s i in
    let bar = index_char '|' s at in
    let shard = if at < n then decimal s i at else -1 in
    shard > prev
    && (s.[i] <> '0' || at = i + 1)
    && bar > at + 1
    && (bar = n || component (bar + 1) shard)
  in
  let body = String.length composite_prefix in
  is_composite_cookie s && (n = body || component body (-1))

let parse_composite_cookie s =
  if not (is_composite_cookie s) then None
  else
    let body =
      String.sub s (String.length composite_prefix)
        (String.length s - String.length composite_prefix)
    in
    if body = "" then Some []
    else
      let parts = String.split_on_char '|' body in
      let parse_part p =
        match String.index_opt p '@' with
        | None -> None
        | Some i ->
            let shard = decimal p 0 i in
            let component = String.sub p (i + 1) (String.length p - i - 1) in
            if shard >= 0 && component <> "" then Some (shard, component) else None
      in
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | p :: rest -> (
            match parse_part p with
            | Some kv -> go (kv :: acc) rest
            | None -> None)
      in
      go [] parts

type reply_kind = Initial_content | Incremental | Degraded

type reply = {
  kind : reply_kind;
  actions : Action.t list;
  cookie : string option;
  entries : int;
  bytes : int;
  count : int;
}

(* The one walk over a reply's actions: every size the exchange
   accounts for is read off the record afterwards. *)
let rec sized kind actions cookie entries bytes count = function
  | [] -> { kind; actions; cookie; entries; bytes; count }
  | a :: rest ->
      sized kind actions cookie (entries + Action.entries_cost a)
        (bytes + Action.bytes_cost a) (count + 1) rest

let reply ~kind ~actions ~cookie = sized kind actions cookie 0 0 0 actions

let entries_cost r = r.entries
let bytes_cost r = r.bytes
let actions_count r = r.count

let cookie_bytes = function Some c -> String.length c | None -> 0

let request_bytes (r : request) = Ldap.Ber.message_overhead + 1 + cookie_bytes r.cookie
let reply_bytes (r : reply) = Ldap.Ber.message_overhead + bytes_cost r + cookie_bytes r.cookie

(* --- Persist push channels ------------------------------------------- *)

type push_status = Push_ok | Push_stalled | Push_gone

type push_channel = {
  pc_send : Action.t -> push_status;
  pc_close : unit -> unit;
}

