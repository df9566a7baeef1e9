open Ldap
module Master = Ldap_resync.Master
module Store = Ldap_store.Store
module Backend_store = Ldap_store.Backend_store

type t = {
  sm_host : string;
  sm_backend : Backend.t;
  sm_master : Master.t;
  mutable sm_backend_store : Backend_store.t option;
  mutable sm_applied : int;
}

let create ?strategy ?indexed (_ : Schema.t) ~id =
  let backend = Backend.create ?indexed () in
  {
    sm_host = Printf.sprintf "shard-%d" id;
    sm_backend = backend;
    sm_master = Master.create ?strategy backend;
    sm_backend_store = None;
    sm_applied = 0;
  }

let host t = t.sm_host
let backend t = t.sm_backend
let master t = t.sm_master
let csn t = Backend.csn t.sm_backend
let applied t = t.sm_applied

let seed t ~contexts entries =
  let ( let* ) = Result.bind in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  let* () = each (fun e -> Backend.add_context t.sm_backend e) contexts in
  let is_context e =
    List.exists (fun c -> Dn.equal (Entry.dn c) (Entry.dn e)) contexts
  in
  let entries =
    List.sort
      (fun a b -> Int.compare (Dn.depth (Entry.dn a)) (Dn.depth (Entry.dn b)))
      entries
  in
  each
    (fun e ->
      if is_context e then Ok () else Backend.restore_entry t.sm_backend e)
    entries

let apply t op =
  match Backend.apply t.sm_backend op with
  | Ok r ->
      t.sm_applied <- t.sm_applied + 1;
      Ok r
  | Error _ as e -> e

let open_store t medium ~prefix =
  let ( let* ) = Result.bind in
  let* bs, recovery =
    Backend_store.open_store t.sm_backend
      (Store.create ~sync:false medium ~name:(prefix ^ "-backend"))
  in
  t.sm_backend_store <- Some bs;
  let* _ =
    Master.open_store t.sm_master (Store.create ~sync:false medium ~name:(prefix ^ "-master"))
  in
  Ok recovery

let checkpoint t =
  Option.iter Backend_store.checkpoint t.sm_backend_store;
  Master.checkpoint t.sm_master
