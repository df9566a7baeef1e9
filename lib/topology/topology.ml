open Ldap
module Resync = Ldap_resync
module R = Ldap_replication

type shape = Star | Chain of int | Tree of { arity : int }

(* Per-leaf durable media, created lazily by [enable_durability]. *)
type durability = {
  dmedia : (string, Ldap_store.Medium.t) Hashtbl.t;
  dfaults : Ldap_store.Medium.Faults.t option;
  dsync : bool;
}

(* What a cold restart (no durable state) needs to rebuild a leaf. *)
type crash_info = { ci_parent : string; ci_queries : Query.t list }

(* The event-driven poll configuration, kept so a restarted leaf can
   resume its own poll loop. *)
type driver = {
  dr_poll_every : int;
  dr_until : int;
  dr_on_leaf_poll : (Leaf.t -> start:int -> finish:int -> unit) option;
}

type t = {
  net : Network.t;
  transport : Resync.Transport.t;
  master : Resync.Master.t;
  root : string;
  parents : (string, string) Hashtbl.t;  (* host -> parent at attach time *)
  mutable nodes : Node.t list;
  mutable leaves : Leaf.t list;
  mutable durability : durability option;
  crashed : (string, crash_info) Hashtbl.t;
  generations : (string, int ref) Hashtbl.t;
      (* per participant: bumped by a crash, a poke or a restart; a
         poll loop launched under an older number does nothing *)
  mutable driver : driver option;
}

let transport t = t.transport
let master t = t.master
let root t = t.root
let network t = t.net
let nodes t = t.nodes
let leaves t = t.leaves

(* [build] reaches the transport's faults; [create] has none. *)
let make ?faults ?(root = "root") backend =
  let net = Network.create () in
  let transport = Resync.Transport.create ?faults net in
  let master = Resync.Master.create backend in
  Resync.Transport.add_master transport ~name:root master;
  {
    net;
    transport;
    master;
    root;
    parents = Hashtbl.create 64;
    nodes = [];
    leaves = [];
    durability = None;
    crashed = Hashtbl.create 8;
    generations = Hashtbl.create 64;
    driver = None;
  }

let create ?root backend = make ?root backend

let add_node t ~name ~parent ~covers =
  let node = Node.create t.transport ~host:name ~upstream:parent in
  let rec install = function
    | [] -> Ok ()
    | q :: rest -> (
        match Node.install_cover node q with
        | Ok () -> install rest
        | Error e -> Error e)
  in
  match install covers with
  | Ok () ->
      Hashtbl.replace t.parents name parent;
      t.nodes <- node :: t.nodes;
      Ok node
  | Error e ->
      Resync.Transport.remove_endpoint t.transport ~name;
      Error e

(* A topology with durability enabled gives each leaf its own medium
   and opens the leaf over it: a new leaf before its first fetch, so
   its initial content is journaled too; a restarted one over what its
   predecessor left. *)
let open_leaf t leaf =
  match t.durability with
  | None -> Ok None
  | Some d ->
      let name = Leaf.name leaf in
      let medium =
        match Hashtbl.find_opt d.dmedia name with
        | Some m -> m
        | None ->
            let m = Ldap_store.Medium.memory ?faults:d.dfaults () in
            Hashtbl.replace d.dmedia name m;
            m
      in
      Result.map Option.some (Leaf.open_store ~sync:d.dsync leaf medium)

let add_leaf t ~name ~parent query =
  let leaf = Leaf.create t.transport ~name ~parent in
  let ( let* ) = Result.bind in
  let* _ = open_leaf t leaf in
  let* () = Leaf.subscribe leaf query in
  Hashtbl.replace t.parents name (Leaf.parent leaf);
  t.leaves <- leaf :: t.leaves;
  Ok leaf

(* --- Failure handling ------------------------------------------------ *)

(* The closest live ancestor of a (possibly dead) host: climb the
   recorded attachment chain until an endpoint answers.  The root is
   always registered, so the climb terminates. *)
let live_host t h =
  let rec go h =
    if h = t.root then t.root
    else
      match Resync.Transport.endpoint t.transport h with
      | Some _ -> h
      | None -> (
          match Hashtbl.find_opt t.parents h with
          | Some p -> go p
          | None -> t.root)
  in
  go h

let kill_node t node =
  Resync.Transport.remove_endpoint t.transport ~name:(Node.host node);
  t.nodes <- List.filter (fun n -> Node.host n <> Node.host node) t.nodes

(* --- Poll loops ------------------------------------------------------ *)

let depth t host =
  let rec go h acc =
    if h = t.root then acc
    else
      match Hashtbl.find_opt t.parents h with
      | Some p -> go p (acc + 1)
      | None -> acc
  in
  go host 0

(* Event-driven polling: every participant — each leaf and each interior
   node — runs its own self-rescheduling poll loop, so polls from
   different tiers interleave in virtual time instead of running as one
   big sequential round.  Start phases are staggered across the poll
   period; the next poll is scheduled [poll_every] ticks after the
   previous one {e completes}, which keeps at most one exchange chain in
   flight per participant.  Quiescence is reached once every loop passes
   [until]. *)
(* The participant's generation cell, made at its first use. *)
let generation t name =
  match Hashtbl.find_opt t.generations name with
  | Some g -> g
  | None ->
      let g = ref 0 in
      Hashtbl.replace t.generations name g;
      g

(* Stops the participant's current poll loop, whatever it is doing: a
   queued occurrence still pops at its time, as a no-op, and an
   exchange in flight completes without rescheduling. *)
let bump t name = incr (generation t name)

(* One participant's self-rescheduling poll loop, live while the
   participant's generation is the one it was launched under. *)
let launch_loop t d name stagger sync_async ~completed =
  let engine = Network.engine t.net in
  let gen = generation t name in
  let launched = !gen in
  let alive () = !gen = launched in
  let rec poll () =
    if alive () then begin
      let start = Ldap_sim.Engine.now engine in
      sync_async (fun () ->
          if alive () then begin
            completed ~start ~finish:(Ldap_sim.Engine.now engine);
            let next = Ldap_sim.Engine.now engine + d.dr_poll_every in
            if next <= d.dr_until then Ldap_sim.Engine.schedule engine ~time:next poll
          end)
    end
  in
  let first = Ldap_sim.Engine.now engine + stagger in
  if first <= d.dr_until then Ldap_sim.Engine.schedule engine ~time:first poll

let launch_leaf_loop t d stagger leaf =
  let completed ~start ~finish =
    match d.dr_on_leaf_poll with
    | Some f -> f leaf ~start ~finish
    | None -> ()
  in
  launch_loop t d (Leaf.name leaf) stagger (Leaf.sync_async leaf) ~completed

let launch_node_loop t d stagger node =
  launch_loop t d (Node.host node) stagger
    (Node.sync_async node)
    ~completed:(fun ~start:_ ~finish:_ -> ())

(* The driver while its loops may still schedule: before [until]. *)
let live_driver t =
  match t.driver with
  | Some d when Ldap_sim.Engine.now (Network.engine t.net) <= d.dr_until -> Some d
  | _ -> None

(* Stops a participant's current loop and starts a replacement
   polling {e now}.  Used by {!heal} so a re-parented participant
   recovers at re-parent time instead of waiting out the rest of its
   poll period. *)
let poke_loop t name relaunch =
  match live_driver t with
  | Some d ->
      bump t name;
      relaunch d
  | None -> ()

(* Re-parents every participant whose upstream endpoint has vanished to
   its closest live ancestor (usually the grandparent).  Cookie
   translation happens inside [retarget]/[reparent]: content is kept
   and the next poll resynchronizes degraded from the acknowledged
   CSN — downstream sessions of a healed node survive untouched.  With
   an event driver active, each healed participant's poll loop is poked
   so that resynchronization starts immediately. *)
let heal t =
  List.iter
    (fun node ->
      let up = Node.upstream node in
      if Resync.Transport.endpoint t.transport up = None then begin
        let p = live_host t up in
        Node.retarget node ~upstream:p;
        Hashtbl.replace t.parents (Node.host node) p;
        poke_loop t (Node.host node) (fun d -> launch_node_loop t d 0 node)
      end)
    t.nodes;
  List.iter
    (fun leaf ->
      let up = Leaf.parent leaf in
      if Resync.Transport.endpoint t.transport up = None then begin
        let p = live_host t up in
        Leaf.reparent leaf ~parent:p;
        Hashtbl.replace t.parents (Leaf.name leaf) p;
        poke_loop t (Leaf.name leaf) (fun d -> launch_leaf_loop t d 0 leaf)
      end)
    t.leaves

(* --- Synchronization ------------------------------------------------- *)

(* One poll round, children before parents: leaves pull from their
   parents' current content first, then the deepest interior tier,
   up to the tier under the root.  An update committed at the root
   therefore propagates one tier per round — convergence lag equals
   tier depth, the quantity the tree-fanout experiment measures. *)
let sync_round t =
  heal t;
  List.iter Leaf.sync t.leaves;
  let by_depth_desc =
    List.sort
      (fun a b ->
        compare (depth t (Node.host b)) (depth t (Node.host a)))
      t.nodes
  in
  List.iter Node.sync by_depth_desc

let drive_events ?on_leaf_poll t engine ~poll_every ~until =
  if poll_every <= 0 then invalid_arg "Topology.drive_events: poll_every must be positive";
  if engine != Network.engine t.net then
    invalid_arg "Topology.drive_events: not the engine of the topology's network";
  heal t;
  let d =
    {
      dr_poll_every = poll_every;
      dr_until = until;
      dr_on_leaf_poll = on_leaf_poll;
    }
  in
  t.driver <- Some d;
  let i = ref 0 in
  List.iter
    (fun leaf ->
      launch_leaf_loop t d (!i mod poll_every) leaf;
      incr i)
    t.leaves;
  List.iter
    (fun node ->
      launch_node_loop t d (!i mod poll_every) node;
      incr i)
    t.nodes

(* --- Crash and restart ----------------------------------------------- *)

let enable_durability ?faults ?(sync = true) t =
  t.durability <- Some { dmedia = Hashtbl.create 16; dfaults = faults; dsync = sync };
  (* Already-populated leaves become durable now: opening each over
     its fresh medium checkpoints its current content. *)
  List.iter
    (fun leaf ->
      match open_leaf t leaf with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Topology.enable_durability: " ^ e))
    t.leaves

let checkpoint_leaves t = List.iter Leaf.checkpoint t.leaves

let medium_of t ~name =
  match t.durability with
  | None -> None
  | Some d -> Hashtbl.find_opt d.dmedia name

let crash_leaf t leaf =
  let name = Leaf.name leaf in
  if Hashtbl.mem t.crashed name then
    invalid_arg ("Topology.crash_leaf: " ^ name ^ " is already down");
  Hashtbl.replace t.crashed name
    { ci_parent = Leaf.parent leaf; ci_queries = Leaf.subscriptions leaf };
  bump t name;
  (* Impose the crash on the durable medium first, then detach the
     zombie in-memory leaf: an exchange still in flight when the crash
     fires can no longer journal into post-crash durable state. *)
  (match medium_of t ~name with
  | Some m -> Ldap_store.Medium.crash m
  | None -> ());
  Leaf.detach_store leaf;
  t.leaves <- List.filter (fun l -> Leaf.name l <> name) t.leaves

type restart_mode = Resume | Merkle | Cold

let restart_leaf ?(mode = Resume) t ~name =
  match Hashtbl.find_opt t.crashed name with
  | None -> Error ("Topology.restart_leaf: " ^ name ^ " is not down")
  | Some info -> (
      let parent = live_host t info.ci_parent in
      let resume leaf report =
        Hashtbl.remove t.crashed name;
        bump t name;
        Hashtbl.replace t.parents name (Leaf.parent leaf);
        t.leaves <- leaf :: t.leaves;
        Option.iter (fun d -> launch_leaf_loop t d 0 leaf) (live_driver t);
        Ok (leaf, report)
      in
      let cold () =
        (* Cold restart: a fresh leaf re-subscribes from scratch —
           every subscription pays a full initial fetch — over a fresh
           medium, so its journal starts from the new content rather
           than from the image the crash left. *)
        Option.iter (fun d -> Hashtbl.remove d.dmedia name) t.durability;
        let leaf = Leaf.create t.transport ~name ~parent in
        let rec re_subscribe = function
          | [] -> resume leaf None
          | q :: rest -> (
              match Leaf.subscribe leaf q with
              | Ok () -> re_subscribe rest
              | Error e -> Error e)
        in
        match open_leaf t leaf with
        | Ok _ -> re_subscribe info.ci_queries
        | Error e -> Error e
      in
      match (mode, medium_of t ~name) with
      | Cold, _ | _, None -> cold ()
      | (Resume | Merkle), Some _ -> (
          (* Durable restart: a fresh leaf opened over the medium gets
             its subscriptions, content and resume cookies from it; the
             next poll resumes ReSync from the durable cookie instead
             of re-fetching.  (A damaged store — torn or stale WAL —
             already forces anti-entropy inside the open itself.) *)
          let leaf = Leaf.create t.transport ~name ~parent in
          match open_leaf t leaf with
          | Ok report when mode = Merkle ->
              (* [Merkle] additionally runs the repair ladder over every
                 subscription right now, whatever the store's damage
                 flags said — the mode for a restart known to have lost
                 updates (e.g. an unsynced WAL). *)
              resume leaf
                (Option.map (R.Filter_replica.repair_all (Leaf.replica leaf)) report)
          | Ok report -> resume leaf report
          | Error e -> Error e))

let leaf_converged t leaf =
  let backend = Resync.Master.backend t.master in
  let canon entries =
    List.sort
      (fun a b -> compare (Dn.canonical (Entry.dn a)) (Dn.canonical (Entry.dn b)))
      entries
  in
  List.for_all
    (fun q ->
      let got = canon (R.Replica.eval_over_entries Schema.default q (Leaf.content_seq leaf q)) in
      let want = canon (Resync.Content.current backend q) in
      List.length got = List.length want && List.for_all2 Entry.equal got want)
    (Leaf.subscriptions leaf)

let converged t = List.for_all (leaf_converged t) t.leaves

let rounds_to_converge ?(max_rounds = 16) t =
  let rec go n =
    if converged t then Some n
    else if n >= max_rounds then None
    else begin
      sync_round t;
      go (n + 1)
    end
  in
  go 0

(* --- Builders --------------------------------------------------------- *)

let leaf_name i = Printf.sprintf "leaf%d" (i + 1)
let node_name i = Printf.sprintf "node%d" (i + 1)

let build ?faults ~shape ~covers ~leaf_queries backend =
  let t = make ?faults backend in
  let attach_leaves parents_of =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | q :: rest -> (
          match add_leaf t ~name:(leaf_name i) ~parent:(parents_of i) q with
          | Ok leaf -> go (i + 1) (leaf :: acc) rest
          | Error e -> Error e)
    in
    go 0 [] leaf_queries
  in
  let interior =
    match shape with
    | Star -> Ok []
    | Chain n ->
        let rec chain i parent acc =
          if i >= n then Ok (List.rev acc)
          else
            match add_node t ~name:(node_name i) ~parent ~covers with
            | Ok node -> chain (i + 1) (node_name i) (node :: acc)
            | Error e -> Error e
        in
        chain 0 t.root []
    | Tree { arity } ->
        let rec row i acc =
          if i >= arity then Ok (List.rev acc)
          else
            match
              add_node t ~name:(node_name i) ~parent:t.root ~covers
            with
            | Ok node -> row (i + 1) (node :: acc)
            | Error e -> Error e
        in
        row 0 []
  in
  match interior with
  | Error e -> Error e
  | Ok [] -> (
      match attach_leaves (fun _ -> t.root) with
      | Ok _ -> Ok t
      | Error e -> Error e)
  | Ok ns -> (
      let parents_of =
        match shape with
        | Chain n when n > 0 -> fun _ -> node_name (n - 1)
        | _ ->
            let arr = Array.of_list (List.map Node.host ns) in
            fun i -> arr.(i mod Array.length arr)
      in
      match attach_leaves parents_of with
      | Ok _ -> Ok t
      | Error e -> Error e)

(* --- Accounting ------------------------------------------------------- *)

let upstream_bytes stats =
  stats.R.Stats.sync_bytes + stats.R.Stats.fetch_bytes
  + stats.R.Stats.merkle_bytes

(* Ber bytes that crossed links terminating at the root: the upstream
   traffic of every participant currently attached to it.  In a star
   this is every leaf's traffic; in a tree only the interior nodes'. *)
let root_link_bytes t =
  let of_node acc node =
    if Node.upstream node = t.root then acc + upstream_bytes (Node.stats node)
    else acc
  in
  let of_leaf acc leaf =
    if Leaf.parent leaf = t.root then acc + upstream_bytes (Leaf.stats leaf)
    else acc
  in
  List.fold_left of_leaf (List.fold_left of_node 0 t.nodes) t.leaves
