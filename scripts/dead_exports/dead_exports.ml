(* Dead-export check over the typed trees that [dune build @check]
   leaves behind.

   Usage: dead_exports ROOT [ALLOWLIST]

   ROOT is a build directory (normally [_build/default]).  Every [.cmt]
   and [.cmti] under it is read.  A unit's source path is taken
   relative to ROOT: the interfaces checked are those under [lib/]; a
   unit is test code when a directory of its path is named [test] or
   its file name starts with [test_]; every other unit is production.

   Each [val] of a checked interface is classified by who references it:
   - some other production unit: fine;
   - only test units: reported as reached only from tests;
   - only its own unit: flagged, it should leave the interface;
   - nothing: flagged, it should be deleted.

   A reported or flagged val fails the run unless ALLOWLIST names it.
   Each allowlist line reads [lib/path/file.mli value.path reason...];
   blank lines and lines starting with [#] are ignored, and the reason
   may not be empty.  An entry that names no val, or a val some other
   production unit references, is stale and fails the run.

   Exit codes: 0 clean; 1 unlisted test-only or flagged vals, or stale
   allowlist entries; 2 usage error, unreadable allowlist, or no
   [.cmt] file under ROOT (the check was run before a build).

   References are keyed by full unit name ([Ldap__Server], not
   [Server]), so two libraries' modules of the same short name stay
   apart.  Module aliases ([module X = P], [let module X = P in]) are
   resolved through the compiler's unique identifiers, never by name,
   so an alias that shadows the module it renames cannot loop; aliases
   between units, such as dune's library wrappers, are followed the
   same way.  A reference through [include P] counts for the including
   module and for every module along the include chain.  A module
   passed whole, as a functor argument or a first-class module, counts
   as a reference to every val under it. *)

open Typedtree

(* A canonical module: a compilation unit and a path of submodules.
   Units are named by their [.cmt] path, as executables' units share
   names ([Dune__exe__Main]) across directories. *)
type modloc = { unit : string; path : string list }

(* What a local module identifier is bound to. *)
type binding =
  | Struct of modloc  (* a structure, at its canonical location *)
  | Alias of string * Path.t  (* [module X = P], P read in that unit *)
  | Opaque  (* functor, application, unpack: not followed *)

(* Who references a val: another production unit, a test unit, or the
   val's own unit.  A unit's category is [Prod] or [Test]. *)
type who = Prod | Test | Self

type unit_info = {
  id : string;  (* the unit's [.cmt] path under ROOT, less the suffix *)
  category : who;
  idents : binding Ident.Tbl.t;  (* local module identifiers *)
  values : modloc Ident.Tbl.t;  (* module-level value identifiers *)
  mutable refs : (Path.t * bool) list;  (* path, whole module? *)
}

let units : (string, unit_info) Hashtbl.t = Hashtbl.create 256

(* Unit ids by module name. *)
let by_name : (string, string) Hashtbl.t = Hashtbl.create 256

(* The unit a global module name denotes, seen from unit [from]: the
   one beside [from] (an executable's own modules), else the library
   unit of that name, else the bare name (the stdlib, say). *)
let unit_named ~from name =
  match Hashtbl.find_all by_name name with
  | [] -> name
  | ids -> (
      let dir = Filename.dirname from in
      match List.find_opt (fun id -> Filename.dirname id = dir) ids with
      | Some id -> id
      | None -> List.hd ids)

(* Module components bound to an alias: [(unit, path)] to the target,
   read in that unit. *)
let aliases : (string * string list, string * Path.t) Hashtbl.t = Hashtbl.create 256

(* Modules included by a module, most recent first. *)
let includes : (string * string list, string * Path.t) Hashtbl.t =
  Hashtbl.create 64

(* Values defined directly in a module. *)
let defined : (string * string list * string, unit) Hashtbl.t =
  Hashtbl.create 4096

(* --- Files ------------------------------------------------------------ *)

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then walk p acc
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then p :: acc
      else acc)
    acc
    (let a = Sys.readdir dir in
     Array.sort compare a;
     a)

(* The source path of a unit relative to ROOT: the directory of its
   [.cmt] minus dune's [.lib.objs/byte] part, plus the source's name. *)
let source_of ~root file sourcefile =
  let rel =
    String.sub file (String.length root + 1)
      (String.length file - String.length root - 1)
  in
  let rec keep = function
    | c :: _ when String.length c > 0 && c.[0] = '.' -> []
    | c :: rest -> c :: keep rest
    | [] -> []
  in
  let dir = keep (String.split_on_char '/' (Filename.dirname rel)) in
  String.concat "/" (dir @ [ Filename.basename sourcefile ])

let category_of source =
  let parts = String.split_on_char '/' source in
  let file = List.nth parts (List.length parts - 1) in
  if List.mem "test" parts || String.starts_with ~prefix:"test_" file then Test
  else Prod

(* --- Collection --------------------------------------------------------- *)

let rec strip_constraint me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> strip_constraint me
  | _ -> me

let binding_of u path me =
  match (strip_constraint me).mod_desc with
  | Tmod_ident (p, _) -> Alias (u.id, p)
  | Tmod_structure _ -> Struct { unit = u.id; path }
  | _ -> Opaque

(* Module-level definitions: values, submodules, aliases, includes. *)
let rec collect_structure u path str =
  let here = { unit = u.id; path } in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun id ->
              Ident.Tbl.replace u.values id here;
              Hashtbl.replace defined (u.id, path, Ident.name id) ())
            (let_bound_idents vbs)
      | Tstr_primitive vd ->
          Ident.Tbl.replace u.values vd.val_id here;
          Hashtbl.replace defined (u.id, path, Ident.name vd.val_id) ()
      | Tstr_module mb -> collect_module u path mb
      | Tstr_recmodule mbs -> List.iter (collect_module u path) mbs
      | Tstr_include { incl_mod; _ } -> (
          match (strip_constraint incl_mod).mod_desc with
          | Tmod_ident (p, _) -> Hashtbl.add includes (u.id, path) (u.id, p)
          | Tmod_structure s -> collect_structure u path s
          | _ -> ())
      | _ -> ())
    str.str_items

and collect_module u path mb =
  match (mb.mb_id, mb.mb_name.txt) with
  | Some id, Some name ->
      let sub = path @ [ name ] in
      let b = binding_of u sub mb.mb_expr in
      Ident.Tbl.replace u.idents id b;
      (match b with
      | Alias (unit, p) -> Hashtbl.replace aliases (u.id, sub) (unit, p)
      | Struct _ | Opaque -> ());
      (match (strip_constraint mb.mb_expr).mod_desc with
      | Tmod_structure s -> collect_structure u sub s
      | _ -> ())
  | _ -> ()

(* Every value reference, every [let module] alias, and every module
   used whole (functor argument or packed first-class module). *)
let collect_refs u str =
  let whole me =
    match (strip_constraint me).mod_desc with
    | Tmod_ident (p, _) -> u.refs <- (p, true) :: u.refs
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> u.refs <- (p, false) :: u.refs
    | Texp_letmodule (Some id, _, _, me, _) ->
        (* A local structure has no canonical location. *)
        let b = match binding_of u [] me with Struct _ -> Opaque | b -> b in
        Ident.Tbl.replace u.idents id b
    | Texp_pack me -> whole me
    | _ -> ());
    super.expr it e
  in
  let module_expr it me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    super.module_expr it me
  in
  let it = { super with expr; module_expr } in
  it.structure it str

(* --- Resolution ----------------------------------------------------------- *)

let max_depth = 64

let rec resolve_module depth unit path =
  if depth > max_depth then None
  else
    match path with
    | Path.Pident id when Ident.persistent id ->
        normalize depth { unit = unit_named ~from:unit (Ident.name id); path = [] }
    | Path.Pident id -> (
        match Hashtbl.find_opt units unit with
        | None -> None
        | Some u -> (
            match Ident.Tbl.find_opt u.idents id with
            | Some (Struct l) -> Some l
            | Some (Alias (unit', p)) -> resolve_module (depth + 1) unit' p
            | Some Opaque | None -> None))
    | Path.Pdot (p, s) -> (
        match resolve_module depth unit p with
        | Some l -> normalize depth { l with path = l.path @ [ s ] }
        | None -> None)
    | Path.Papply _ | Path.Pextra_ty _ -> None

and normalize depth l =
  match Hashtbl.find_opt aliases (l.unit, l.path) with
  | Some (unit', p) -> resolve_module (depth + 1) unit' p
  | None -> Some l

(* The modules a reference to [l.s] reaches: [l] itself and, when [l]
   does not define [s], each module down the include chain to the one
   that does.  [None] when no module on the chain defines it. *)
let rec value_chain depth l s =
  if depth > max_depth then None
  else if Hashtbl.mem defined (l.unit, l.path, s) then Some [ l ]
  else
    Hashtbl.find_all includes (l.unit, l.path)
    |> List.find_map (fun (unit, p) ->
           Option.bind (resolve_module depth unit p) (fun l' -> value_chain (depth + 1) l' s))
    |> Option.map (fun chain -> l :: chain)

(* --- Interfaces --------------------------------------------------------- *)

type iface_val = {
  mli : string;
  line : int;
  name : string;  (* dotted through submodules *)
  key : string * string list * string;
}

let rec sig_vals unit mli path sg acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = String.concat "." (path @ [ vd.val_name.txt ]) in
          {
            mli;
            line = vd.val_loc.loc_start.pos_lnum;
            name;
            key = (unit, path, vd.val_name.txt);
          }
          :: acc
      | Tsig_module { md_name = { txt = Some n; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature s -> sig_vals unit mli (path @ [ n ]) s acc
          | _ -> acc)
      | _ -> acc)
    acc sg.sig_items

(* --- Allowlist ------------------------------------------------------------ *)

let read_allowlist file =
  let ic = open_in file in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (n + 1) acc
        else
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | mli :: name :: _ :: _ -> loop (n + 1) ((mli, name) :: acc)
          | _ ->
              Printf.eprintf "%s:%d: expected 'FILE.mli VALUE REASON...'\n" file n;
              exit 2)
  in
  loop 1 []

(* --- Main --------------------------------------------------------------- *)

let () =
  let root, allow =
    match Array.to_list Sys.argv with
    | [ _; root ] -> (root, None)
    | [ _; root; allow ] -> (root, Some allow)
    | _ ->
        prerr_endline "usage: dead_exports ROOT [ALLOWLIST]";
        exit 2
  in
  let root =
    if String.length root > 1 && root.[String.length root - 1] = '/' then
      String.sub root 0 (String.length root - 1)
    else root
  in
  let allowed = match allow with Some f -> read_allowlist f | None -> [] in
  let files = if Sys.file_exists root && Sys.is_directory root then walk root [] else [] in
  let vals = ref [] in
  let cmts = ref 0 in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      let id = Filename.remove_extension file in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Cmt_format.Implementation str ->
          incr cmts;
          let u =
            {
              id;
              category = category_of (source_of ~root file src);
              idents = Ident.Tbl.create 16;
              values = Ident.Tbl.create 64;
              refs = [];
            }
          in
          Hashtbl.replace units id u;
          Hashtbl.add by_name cmt.cmt_modname id;
          collect_structure u [] str;
          collect_refs u str
      | Some src, Cmt_format.Interface sg ->
          let mli = source_of ~root file src in
          if String.starts_with ~prefix:"lib/" mli then vals := sig_vals id mli [] sg !vals
      | _ -> ())
    files;
  if !cmts = 0 then begin
    Printf.eprintf "dead_exports: no .cmt files under %s; run 'dune build @check' first\n" root;
    exit 2
  end;
  let refs : (string * string list * string, who) Hashtbl.t = Hashtbl.create 8192 in
  let wholes = ref [] in
  let mark u (l : modloc) s =
    Hashtbl.add refs (l.unit, l.path, s) (if l.unit = u.id then Self else u.category)
  in
  Hashtbl.iter
    (fun _ u ->
      List.iter
        (fun (p, whole) ->
          match p with
          | _ when whole -> (
              match resolve_module 0 u.id p with
              | Some l when l.unit <> u.id -> wholes := (l, u.category) :: !wholes
              | _ -> ())
          | Path.Pident id ->
              Option.iter (fun l -> mark u l (Ident.name id)) (Ident.Tbl.find_opt u.values id)
          | Path.Pdot (m, s) ->
              Option.iter
                (fun l ->
                  List.iter (fun l -> mark u l s) (Option.value (value_chain 0 l s) ~default:[ l ]))
                (resolve_module 0 u.id m)
          | Path.Papply _ | Path.Pextra_ty _ -> ())
        u.refs)
    units;
  let rec is_prefix p q =
    match (p, q) with [], _ -> true | a :: p, b :: q -> a = b && is_prefix p q | _ -> false
  in
  let status v =
    let unit, path, _ = v.key in
    let who =
      Hashtbl.find_all refs v.key
      @ List.filter_map
          (fun (l, c) -> if l.unit = unit && is_prefix l.path path then Some c else None)
          !wholes
    in
    if List.mem Prod who then None
    else if List.mem Test who then Some `Test_only
    else if List.mem Self who then Some (`Flagged "used only inside its own module")
    else Some (`Flagged "referenced nowhere")
  in
  let vals =
    List.sort (fun a b -> compare (a.mli, a.line, a.name) (b.mli, b.line, b.name)) !vals
    |> List.map (fun v -> (v, status v))
  in
  let flagged = List.filter_map (function v, Some (`Flagged w) -> Some (v, w) | _ -> None) vals in
  let test_only = List.filter_map (function v, Some `Test_only -> Some v | _ -> None) vals in
  let is_allowed v = List.mem (v.mli, v.name) allowed in
  let unallowed =
    List.filter (fun (v, _) -> not (is_allowed v))
      (flagged @ List.map (fun v -> (v, "reached only from tests")) test_only)
    |> List.sort (fun (a, _) (b, _) -> compare (a.mli, a.line) (b.mli, b.line))
  in
  List.iter (fun (v, what) -> Printf.printf "%s:%d: %s is %s\n" v.mli v.line v.name what) unallowed;
  let stale =
    List.filter_map
      (fun entry ->
        match List.find_opt (fun (v, _) -> (v.mli, v.name) = entry) vals with
        | Some (_, Some _) -> None
        | Some (_, None) -> Some (entry, "it has a production caller")
        | None -> Some (entry, "no such val"))
      allowed
  in
  List.iter
    (fun ((mli, name), why) -> Printf.printf "allowlist: %s %s is stale: %s\n" mli name why)
    stale;
  Printf.printf "%d vals checked, %d flagged, %d test-only, %d allowlisted\n" (List.length vals)
    (List.length flagged) (List.length test_only)
    (List.length flagged + List.length test_only - List.length unallowed);
  exit (if unallowed <> [] || stale <> [] then 1 else 0)
