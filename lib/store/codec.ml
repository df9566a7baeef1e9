open Ldap
module Der = Ber_codec.Der

let decode reader payload =
  match reader (Der.cursor payload) with
  | v -> Ok v
  | exception Ber_codec.Decode_error e -> Error ("decode: " ^ e)

let read_csn c = Csn.of_int (Der.read_integer c)

let read_dn c =
  match Dn.of_string (Der.read_octets c) with
  | Ok d -> d
  | Error e -> raise (Ber_codec.Decode_error e)

let read_entry_opt c = Der.read_option Der.read_entry c

let read_mod_item c =
  let inner = Der.read_seq c in
  let kind =
    match Der.read_enum inner with
    | 0 -> Update.Add_values
    | 1 -> Update.Delete_values
    | 2 -> Update.Replace_values
    | n ->
        raise (Ber_codec.Decode_error (Printf.sprintf "bad mod kind %d" n))
  in
  let attr = Der.read_octets inner in
  let values = Der.read_seq inner in
  let rec vals acc =
    if Der.at_end values then List.rev acc
    else vals (Der.read_octets values :: acc)
  in
  { Update.mod_kind = kind; mod_attr = attr; mod_values = vals [] }

let read_op c =
  let inner = Der.read_seq c in
  match Der.read_enum inner with
  | 0 -> Update.Add (Der.read_entry inner)
  | 1 -> Update.Delete (read_dn inner)
  | 2 ->
      let d = read_dn inner in
      let items = Der.read_seq inner in
      let rec go acc =
        if Der.at_end items then List.rev acc
        else go (read_mod_item items :: acc)
      in
      Update.Modify (d, go [])
  | 3 ->
      let d = read_dn inner in
      let rdn =
        match Dn.rdn_of_string (Der.read_octets inner) with
        | Ok r -> r
        | Error e -> raise (Ber_codec.Decode_error e)
      in
      let delete_old_rdn = Der.read_boolean inner in
      let new_superior = Der.read_option read_dn inner in
      Update.Modify_dn { dn = d; new_rdn = rdn; delete_old_rdn; new_superior }
  | n -> raise (Ber_codec.Decode_error (Printf.sprintf "bad op kind %d" n))

(* Encoders emitting backwards into a reused buffer (see
   {!Ber_codec.Der.W}): children of every composite go in reverse
   field order, and the [read_*] cursors above decode the images. *)
module W = struct
  module DW = Der.W

  let csn w c = DW.integer w (Csn.to_int c)
  let dn w d = DW.octets w (Dn.to_string d)
  let entry_opt w e = DW.option w (DW.entry w) e

  let mod_item w (m : Update.mod_item) =
    let kind =
      match m.Update.mod_kind with
      | Update.Add_values -> 0
      | Update.Delete_values -> 1
      | Update.Replace_values -> 2
    in
    let m0 = DW.mark w in
    let mv = DW.mark w in
    List.iter (fun v -> DW.octets w v) (List.rev m.Update.mod_values);
    DW.close_seq w mv;
    DW.octets w m.Update.mod_attr;
    DW.enum w kind;
    DW.close_seq w m0

  let op w (o : Update.op) =
    let m0 = DW.mark w in
    (match o with
    | Update.Add e ->
        DW.entry w e;
        DW.enum w 0
    | Update.Delete d ->
        dn w d;
        DW.enum w 1
    | Update.Modify (d, items) ->
        let mi = DW.mark w in
        List.iter (mod_item w) (List.rev items);
        DW.close_seq w mi;
        dn w d;
        DW.enum w 2
    | Update.Modify_dn { dn = d; new_rdn; delete_old_rdn; new_superior } ->
        DW.option w (dn w) new_superior;
        DW.boolean w delete_old_rdn;
        DW.octets w (Dn.rdn_to_string new_rdn);
        dn w d;
        DW.enum w 3);
    DW.close_seq w m0

  let record w (r : Update.record) =
    let m0 = DW.mark w in
    entry_opt w r.Update.after;
    entry_opt w r.Update.before;
    op w r.Update.op;
    csn w r.Update.csn;
    DW.close_seq w m0
end

let read_record c =
  let inner = Der.read_seq c in
  let rcsn = read_csn inner in
  let rop = read_op inner in
  let before = read_entry_opt inner in
  let after = read_entry_opt inner in
  { Update.csn = rcsn; op = rop; before; after }
