open Ldap

(* Requests carry the consumer's tree shape so both sides always hash
   into the same segmentation, whatever the server's default. *)
type request =
  | Root
  | Branches of Tree.config
  | Segments of Tree.config * int list
  | Fetch of Tree.config * int list

type reply =
  | Root_hash of int64
  | Branch_hashes of (int * int64) list
  | Segment_hashes of (int * int64) list
  | Segment_entries of { entries : Entry.t list; cookie : string option }

(* --- Modelled wire costs ----------------------------------------------
   Same style as Protocol.request_bytes/reply_bytes: LDAP message
   framing plus the payload.  Hashes are 8 bytes, indices 4, and the
   tree shape 4 (two small integers). *)

let hash_bytes = 8
let index_bytes = 4
let config_bytes = 4

let cookie_bytes = function Some c -> String.length c | None -> 0

let request_bytes = function
  | Root -> Ber.message_overhead + 1
  | Branches _ -> Ber.message_overhead + 1 + config_bytes
  | Segments (_, l) | Fetch (_, l) ->
      Ber.message_overhead + 1 + config_bytes + (index_bytes * List.length l)

let reply_bytes = function
  | Root_hash _ -> Ber.message_overhead + hash_bytes
  | Branch_hashes l | Segment_hashes l ->
      Ber.message_overhead + ((index_bytes + hash_bytes) * List.length l)
  | Segment_entries { entries; cookie } ->
      Ber.message_overhead
      + List.fold_left (fun acc e -> acc + Ber.entry_size e) 0 entries
      + cookie_bytes cookie

(* --- Serving ---------------------------------------------------------- *)

let in_segments cfg sids dn =
  let s = Tree.segment_of_dn cfg dn in
  List.mem s sids

let serve ~content ~cookie request =
  match request with
  | Root -> Root_hash (Tree.root (Tree.of_seq (content ())))
  | Branches cfg -> Branch_hashes (Tree.branches (Tree.of_seq ~config:cfg (content ())))
  | Segments (cfg, bids) ->
      let tree = Tree.of_seq ~config:cfg (content ()) in
      Segment_hashes
        (List.concat_map
           (fun b ->
             List.map (fun s -> (s, Tree.segment tree s)) (Tree.segments_of_branch cfg b))
           bids)
  | Fetch (cfg, sids) ->
      (* The cookie is minted first: it pins the serving side's current
         synchronization point, and the entries shipped are the content
         at (or past) that point, so a consumer installing both cannot
         hold a cookie ahead of its content. *)
      let cookie = cookie () in
      let entries =
        List.of_seq
          (Seq.filter (fun e -> in_segments cfg sids (Entry.dn e)) (content ()))
      in
      Segment_entries { entries; cookie }

(* --- Reconciliation driver -------------------------------------------- *)

type report = {
  rounds : int;
  depth : int;
  segments_total : int;
  segments_compared : int;
  segments_shipped : int;
  entries_shipped : int;
  bytes_sent : int;
  bytes_received : int;
  converged : bool;
}

(* Walks one reconciliation may spend chasing a drifting server. *)
let max_rounds = 4

let reconcile ?(config = Tree.default_config) ~local ~apply ~rpc () =
  let ( let* ) = Result.bind in
  let compared = ref 0 in
  let shipped = ref 0 in
  let entries_shipped = ref 0 in
  let sent = ref 0 in
  let received = ref 0 in
  let send req =
    sent := !sent + request_bytes req;
    let* reply = rpc req in
    received := !received + reply_bytes reply;
    Ok reply
  in
  let make_report rounds converged =
    {
      rounds;
      depth = Tree.depth config;
      segments_total = config.Tree.segments;
      segments_compared = !compared;
      segments_shipped = !shipped;
      entries_shipped = !entries_shipped;
      bytes_sent = !sent;
      bytes_received = !received;
      converged;
    }
  in
  (* Each round walks root -> branches -> segments -> fetch against the
     current local content, applies the differing segments, then loops:
     the next round's root comparison verifies convergence.  Updates
     landing upstream mid-walk make a round ship a cookie ahead of
     already-compared segments — the re-walk closes exactly that
     window, and a server drifting faster than [max_rounds] rounds can
     chase is reported unconverged so the caller can fall back cold. *)
  let rec round r =
    if r > max_rounds then Ok (make_report (r - 1) false)
    else
      let tree = Tree.of_seq ~config (local ()) in
      let* reply = send Root in
      match reply with
      | Root_hash h when Int64.equal h (Tree.root tree) ->
          Ok (make_report r true)
      | Root_hash _ -> (
          let* reply = send (Branches config) in
          match reply with
          | Branch_hashes remote -> (
              match Tree.diff_branches tree remote with
              | [] -> round (r + 1)
              | bids -> (
                  let* reply = send (Segments (config, bids)) in
                  match reply with
                  | Segment_hashes remote -> (
                      compared := !compared + List.length remote;
                      match Tree.diff_segments tree remote with
                      | [] -> round (r + 1)
                      | sids -> (
                          let* reply = send (Fetch (config, sids)) in
                          match reply with
                          | Segment_entries { entries; cookie } ->
                              shipped := !shipped + List.length sids;
                              entries_shipped :=
                                !entries_shipped + List.length entries;
                              let fetched =
                                List.fold_left
                                  (fun acc e -> Dn.Set.add (Entry.dn e) acc)
                                  Dn.Set.empty entries
                              in
                              let deletes =
                                Seq.filter_map
                                  (fun e ->
                                    let dn = Entry.dn e in
                                    if
                                      in_segments config sids dn
                                      && not (Dn.Set.mem dn fetched)
                                    then Some dn
                                    else None)
                                  (local ())
                                |> List.of_seq
                              in
                              apply ~upserts:entries ~deletes ~cookie;
                              round (r + 1)
                          | _ -> Error "anti-entropy: unexpected fetch reply"))
                  | _ -> Error "anti-entropy: unexpected segment reply"))
          | _ -> Error "anti-entropy: unexpected branch reply")
      | _ -> Error "anti-entropy: unexpected root reply"
  in
  round 1
