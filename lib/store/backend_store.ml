open Ldap
module Der = Ber_codec.Der
module DW = Der.W

type t = { backend : Backend.t; store : Store.t }

(* Snapshot layout: SEQ [ csn; floor; contexts; log ] where contexts
   is a SEQ of per-context SEQs of entry images (parent before
   children, suffix entry first) and log is a SEQ of the update
   log's retained records, oldest first (older images hold a separate
   ring's records in the same shape and restore the same way).
   Emitted with the backwards writer (fields and list elements in
   reverse order), byte-identical to the old string-combinator
   image.  An entry's kept DER image is copied, but none is kept here,
   and no tail CRC is known: the whole payload is checksummed. *)
let snapshot_emit backend w =
  let m = DW.mark w in
  let ml = DW.mark w in
  List.iter
    (fun r -> Codec.W.record w r)
    (List.rev (Backend.log_since backend (Backend.log_floor backend)));
  DW.close_seq w ml;
  let mc = DW.mark w in
  List.iter
    (fun suffix ->
      let mctx = DW.mark w in
      (* Slot order puts the suffix first and parents before children;
         consing builds the reverse, which the backwards writer flips
         back to slot order in the final image. *)
      List.iter
        (fun e -> DW.entry w e)
        (Backend.fold_entries backend ~init:[] ~f:(fun acc e ->
             if Dn.ancestor_of suffix (Entry.dn e) then e :: acc else acc));
      DW.close_seq w mctx)
    (List.rev (Backend.contexts backend));
  DW.close_seq w mc;
  Codec.W.csn w (Backend.log_floor backend);
  Codec.W.csn w (Backend.csn backend);
  DW.close_seq w m;
  (0, 0)

let checkpoint t = Store.checkpoint_w t.store (snapshot_emit t.backend)

let restore_snapshot backend payload =
  let ( let* ) = Result.bind in
  let* csn, floor, contexts, log =
    Codec.decode
      (fun c ->
        let inner = Der.read_seq c in
        let csn = Codec.read_csn inner in
        let floor = Codec.read_csn inner in
        let contexts =
          let outer = Der.read_seq inner in
          let rec per_ctx acc =
            if Der.at_end outer then List.rev acc
            else begin
              let ctx = Der.read_seq outer in
              let rec entries eacc =
                if Der.at_end ctx then List.rev eacc
                else entries (Der.read_entry ctx :: eacc)
              in
              per_ctx (entries [] :: acc)
            end
          in
          per_ctx []
        in
        let log =
          let records = Der.read_seq inner in
          let rec go acc =
            if Der.at_end records then List.rev acc
            else go (Codec.read_record records :: acc)
          in
          go []
        in
        (csn, floor, contexts, log))
      payload
  in
  let* () =
    List.fold_left
      (fun acc entries ->
        let* () = acc in
        match entries with
        | [] -> Ok ()
        | suffix :: rest ->
            let* () = Backend.add_context backend suffix in
            List.fold_left
              (fun acc e ->
                let* () = acc in
                Backend.restore_entry backend e)
              (Ok ()) rest)
      (Ok ()) contexts
  in
  Backend.restore_csn backend csn;
  Backend.restore_log backend ~floor log;
  Ok ()

let open_store backend store =
  let t = { backend; store } in
  let populated =
    Backend.contexts backend <> [] || not (Csn.equal (Backend.csn backend) Csn.zero)
  in
  Store.open_state store ~populated
    ~snapshot:(restore_snapshot backend)
    ~replay:(fun payload ->
      Result.bind (Codec.decode Codec.read_record payload) (Backend.replay_record backend))
    ~attach:(fun () ->
      Backend.subscribe backend (fun record ->
          Store.append_w store (fun w -> Codec.W.record w record)))
    ~checkpoint:(fun () -> checkpoint t)
  |> Result.map (fun recovery -> (t, recovery))
