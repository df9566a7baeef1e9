open Ldap
module Der = Ber_codec.Der

let read_dn c =
  match Dn.of_string (Der.read_octets c) with
  | Ok d -> d
  | Error e -> raise (Ber_codec.Decode_error e)

let read_action c =
  let inner = Der.read_seq c in
  match Der.read_enum inner with
  | 0 -> Action.Add (Der.read_entry inner)
  | 1 -> Action.Modify (Der.read_entry inner)
  | 2 -> Action.Delete (read_dn inner)
  | 3 -> Action.Retain (read_dn inner)
  | n -> raise (Ber_codec.Decode_error (Printf.sprintf "bad action kind %d" n))

let read_actions c =
  let inner = Der.read_seq c in
  let rec go acc =
    if Der.at_end inner then List.rev acc else go (read_action inner :: acc)
  in
  go []

let kind_code = function
  | Protocol.Initial_content -> 0
  | Protocol.Incremental -> 1
  | Protocol.Degraded -> 2

let kind_of_code = function
  | 0 -> Protocol.Initial_content
  | 1 -> Protocol.Incremental
  | 2 -> Protocol.Degraded
  | n -> raise (Ber_codec.Decode_error (Printf.sprintf "bad reply kind %d" n))

let read_cookie_opt c = Der.read_option Der.read_octets c

(* Encoders emitting backwards into a reused buffer (children in
   reverse field order, see {!Ber_codec.Der.W}); the [read_*] cursors
   above decode the images.  [entry] writes each entry: the
   consumer's records keep the image on the entry, the master's do
   not. *)
module W = struct
  module DW = Der.W

  let action_with entry w (a : Action.t) =
    let m = DW.mark w in
    (match a with
    | Action.Add e ->
        entry w e;
        DW.enum w 0
    | Action.Modify e ->
        entry w e;
        DW.enum w 1
    | Action.Delete dn ->
        DW.octets w (Dn.to_string dn);
        DW.enum w 2
    | Action.Retain dn ->
        DW.octets w (Dn.to_string dn);
        DW.enum w 3);
    DW.close_seq w m

  let actions_with entry w l =
    let m = DW.mark w in
    List.iter (action_with entry w) (List.rev l);
    DW.close_seq w m

  let action = action_with DW.keep_entry
  let actions = actions_with DW.entry

  let reply w (r : Protocol.reply) =
    let m = DW.mark w in
    DW.option w (DW.octets w) r.Protocol.cookie;
    actions_with DW.keep_entry w r.Protocol.actions;
    DW.enum w (kind_code r.Protocol.kind);
    DW.close_seq w m
end

let read_reply c =
  let inner = Der.read_seq c in
  let kind = kind_of_code (Der.read_enum inner) in
  let acts = read_actions inner in
  let cookie = read_cookie_opt inner in
  Protocol.reply ~kind ~actions:acts ~cookie
