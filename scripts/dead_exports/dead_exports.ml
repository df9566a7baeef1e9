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

   Each optional parameter [?x] of a val some other production unit
   references is classified the same way, by who applies the val to
   it (as [~x:] or [?x:]): some other production unit, fine; only
   test units, reported; nothing else, flagged — it is a configuration
   no production path can select.  The options of a reported or
   flagged val are not checked apart from it.

   Each label of a record type declared in a [lib/] unit (in its
   interface, or in its implementation when the interface does not
   export the type's definition) is classified by who reads it.  A
   label is read by a field access [e.l], except one on the right-hand
   side of an assignment to the same label ([x.l <- x.l + 1] only
   writes it); by a record pattern naming it; by a [{ r with ... }]
   copy that keeps it; and by a polymorphic comparison or hash ([=],
   [compare], [Hashtbl.hash], ...) of a value whose type holds the
   record, which reads every label.  Read by a production unit, its
   own included: fine; only by test units: reported; by nothing:
   flagged.

   Each constructor of a variant type declared in a [lib/] unit is
   classified the same way by who builds it, in an expression (a
   pattern matches it, it does not build it): a production unit, fine;
   only test units, reported; nothing, flagged — it is a configuration
   no production path can select.  A use of a type that re-exports
   another's definition ([type t = M.t = A | B]) counts for both.

   A reported or flagged val, option, field or constructor fails the
   run unless ALLOWLIST names it.  Each allowlist line reads
   [lib/path/file.mli value.path reason...], an option being named
   [value.path?label], a field [type.label] and a constructor
   [type.Constructor] (behind the path of their submodule, if any);
   blank lines and lines starting with [#] are ignored, and the reason
   may not be empty.  An entry that names nothing the check classifies,
   or one that production references, passes, reads or builds, is
   stale and fails the run.

   Exit codes: 0 clean; 1 unlisted test-only or flagged vals, options,
   fields or constructors, or stale allowlist entries; 2 usage error, unreadable
   allowlist, or no [.cmt] file under ROOT (the check was run before
   a build).

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

(* What the check finds wrong with an item, if anything. *)
type finding = Test_only | Flagged of string

(* What an item is: an interface val, an optional parameter of one, a
   record label or a variant constructor. *)
type kind = Val | Option | Field | Constructor

type unit_info = {
  id : string;  (* the unit's [.cmt] path under ROOT, less the suffix *)
  category : who;
  idents : binding Ident.Tbl.t;  (* local module identifiers *)
  values : modloc Ident.Tbl.t;  (* module-level value identifiers *)
  types : modloc Ident.Tbl.t;  (* module-level type identifiers *)
  mutable refs : (Path.t * bool) list;  (* path, whole module? *)
  mutable passes : (Path.t * string list) list;
      (* a value applied to optional arguments: its path, their labels *)
  mutable uses : (Path.t * string) list;
      (* a label read or a constructor built, with the type it belongs to *)
  mutable compared : Path.t list;
      (* types of the values a polymorphic comparison or hash reads *)
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

(* Types defined directly in a module. *)
let types_defined : (string * string list * string, unit) Hashtbl.t =
  Hashtbl.create 1024

(* A type whose definition names another ([type t = M.t = ...]): that
   other type's path, read in the defining unit. *)
let manifests : (string * string list * string, string * Path.t) Hashtbl.t =
  Hashtbl.create 256

(* Each record type's labels, and the types they hold: a comparison of
   the record reads all of them and reaches into the held types. *)
let records : (string * string list * string, string list * Path.t list) Hashtbl.t =
  Hashtbl.create 256

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

(* The type constructors a type expression is built from. *)
let rec constrs depth ty =
  if depth > 16 then []
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> p :: List.concat_map (constrs (depth + 1)) args
    | Ttuple tys -> List.concat_map (constrs (depth + 1)) tys
    | _ -> []

let owner ty = match Types.get_desc ty with Tconstr (p, _, _) -> Some p | _ -> None

(* The argument types of a function type. *)
let rec arguments ty =
  match Types.get_desc ty with Tarrow (_, a, b, _) -> a :: arguments b | _ -> []

let collect_type u path (d : type_declaration) =
  let key = (u.id, path, d.typ_name.txt) in
  Ident.Tbl.replace u.types d.typ_id { unit = u.id; path };
  Hashtbl.replace types_defined key ();
  Option.iter
    (fun p -> Hashtbl.replace manifests key (u.id, p))
    (Option.bind d.typ_type.type_manifest owner);
  match d.typ_kind with
  | Ttype_record lds ->
      Hashtbl.replace records key
        ( List.map (fun ld -> ld.ld_name.txt) lds,
          List.concat_map (fun ld -> constrs 0 ld.ld_type.ctyp_type) lds )
  | Ttype_variant _ | Ttype_abstract | Ttype_open -> ()

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
      | Tstr_type (_, decls) -> List.iter (collect_type u path) decls
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

(* The polymorphic comparisons and hashes: each reads every label of
   the records its arguments hold. *)
let polymorphic =
  List.map (( ^ ) "Stdlib.")
    [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max"; "Hashtbl.hash" ]

(* Every value reference, every [let module] alias, every module used
   whole (functor argument or packed first-class module), the
   optional arguments every value applied by name is passed, every
   label read, every constructor built and every polymorphic
   comparison. *)
let collect_refs u str =
  let whole me =
    match (strip_constraint me).mod_desc with
    | Tmod_ident (p, _) -> u.refs <- (p, true) :: u.refs
    | _ -> ()
  in
  let use ty name = Option.iter (fun p -> u.uses <- (p, name) :: u.uses) (owner ty) in
  let read (l : Types.label_description) = use l.lbl_res l.lbl_name in
  (* The labels whose assignments enclose the expression visited. *)
  let assigned = ref [] in
  let same_label (a : Types.label_description) (b : Types.label_description) =
    a.lbl_name = b.lbl_name && Option.equal Path.same (owner a.lbl_res) (owner b.lbl_res)
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_setfield (target, _, l, rhs) ->
        it.Tast_iterator.expr it target;
        let outer = !assigned in
        assigned := l :: outer;
        it.expr it rhs;
        assigned := outer
    | desc ->
        (match desc with
        | Texp_ident (p, _, _) ->
            u.refs <- (p, false) :: u.refs;
            if List.mem (Path.name p) polymorphic then
              u.compared <- List.concat_map (constrs 0) (arguments e.exp_type) @ u.compared
        | Texp_field (_, _, l) -> if not (List.exists (same_label l) !assigned) then read l
        | Texp_record { fields; extended_expression = Some _; _ } ->
            Array.iter (function l, Kept _ -> read l | _, Overridden _ -> ()) fields
        | Texp_construct (_, c, _) -> use c.cstr_res c.cstr_name
        | Texp_letmodule (Some id, _, _, me, _) ->
            (* A local structure has no canonical location. *)
            let b = match binding_of u [] me with Struct _ -> Opaque | b -> b in
            Ident.Tbl.replace u.idents id b
        | Texp_pack me -> whole me
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match
              List.filter_map
                (function
                  (* An omitted optional argument is an explicit [None]
                     at a ghost location. *)
                  | Asttypes.Optional l, Some e when not e.exp_loc.loc_ghost -> Some l
                  | _ -> None)
                args
            with
            | [] -> ()
            | labels -> u.passes <- (p, labels) :: u.passes)
        | _ -> ());
        super.expr it e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> read l) fields
    | _ -> ());
    super.pat it p
  in
  let module_expr it me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    super.module_expr it me
  in
  let it = { super with expr; pat; module_expr } in
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
   does not define [s] (by the table [defined]), each module down the
   include chain to the one that does.  [None] when no module on the
   chain defines it. *)
let rec include_chain defined depth l s =
  if depth > max_depth then None
  else if Hashtbl.mem defined (l.unit, l.path, s) then Some [ l ]
  else
    Hashtbl.find_all includes (l.unit, l.path)
    |> List.find_map (fun (unit, p) ->
           Option.bind (resolve_module depth unit p) (fun l' ->
               include_chain defined (depth + 1) l' s))
    |> Option.map (fun chain -> l :: chain)

(* The type definitions a type path from [unit] names: the defining
   module's and, when that definition names another type, the
   other's. *)
let rec type_keys depth unit p =
  let defining =
    match p with
    | _ when depth > max_depth -> None
    | Path.Pident id ->
        Option.bind (Hashtbl.find_opt units unit) (fun u ->
            Option.map (fun l -> (l, Ident.name id)) (Ident.Tbl.find_opt u.types id))
    | Path.Pdot (m, s) ->
        Option.bind (resolve_module depth unit m) (fun l ->
            Option.map
              (fun chain -> (List.hd (List.rev chain), s))
              (include_chain types_defined depth l s))
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  match defining with
  | Some (l, s) ->
      let key = (l.unit, l.path, s) in
      key
      :: Option.fold ~none:[]
           ~some:(fun (unit', p') -> type_keys (depth + 1) unit' p')
           (Hashtbl.find_opt manifests key)
  | None -> []

(* --- Declarations --------------------------------------------------------- *)

type item = {
  file : string;
  line : int;
  name : string;  (* dotted through submodules (and a label's type) *)
  key : string * string list * string;
  kind : kind;
  options : string list;  (* labels of a val's optional parameters *)
}

let rec optional_labels ct =
  match ct.ctyp_desc with
  | Ttyp_arrow (Asttypes.Optional l, _, rest) -> l :: optional_labels rest
  | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optional_labels rest
  | _ -> []

(* The labels and constructors a type declaration declares. *)
let type_items unit file path (d : type_declaration) =
  let item kind name (loc : Location.t) =
    let path = path @ [ d.typ_name.txt ] in
    {
      file;
      line = loc.loc_start.pos_lnum;
      name = String.concat "." (path @ [ name ]);
      key = (unit, path, name);
      kind;
      options = [];
    }
  in
  match d.typ_kind with
  | Ttype_record lds -> List.map (fun ld -> item Field ld.ld_name.txt ld.ld_loc) lds
  | Ttype_variant cds -> List.map (fun cd -> item Constructor cd.cd_name.txt cd.cd_loc) cds
  | Ttype_abstract | Ttype_open -> []

(* The vals, labels and constructors an interface declares. *)
let rec sig_items unit mli path sg acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = String.concat "." (path @ [ vd.val_name.txt ]) in
          {
            file = mli;
            line = vd.val_loc.loc_start.pos_lnum;
            name;
            key = (unit, path, vd.val_name.txt);
            kind = Val;
            options = optional_labels vd.val_desc;
          }
          :: acc
      | Tsig_type (_, decls) -> List.concat_map (type_items unit mli path) decls @ acc
      | Tsig_module { md_name = { txt = Some n; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature s -> sig_items unit mli (path @ [ n ]) s acc
          | _ -> acc)
      | _ -> acc)
    acc sg.sig_items

(* The labels and constructors an implementation declares. *)
let rec str_items unit ml path str acc =
  List.fold_left
    (fun acc item ->
      match item.str_desc with
      | Tstr_type (_, decls) -> List.concat_map (type_items unit ml path) decls @ acc
      | Tstr_module { mb_name = { txt = Some n; _ }; mb_expr; _ } -> (
          match (strip_constraint mb_expr).mod_desc with
          | Tmod_structure s -> str_items unit ml (path @ [ n ]) s acc
          | _ -> acc)
      | _ -> acc)
    acc str.str_items

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
  let declared = ref [] and implemented = ref [] in
  let cmts = ref 0 in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      let id = Filename.remove_extension file in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Cmt_format.Implementation str ->
          incr cmts;
          let ml = source_of ~root file src in
          let u =
            {
              id;
              category = category_of ml;
              idents = Ident.Tbl.create 16;
              values = Ident.Tbl.create 64;
              types = Ident.Tbl.create 16;
              refs = [];
              passes = [];
              uses = [];
              compared = [];
            }
          in
          Hashtbl.replace units id u;
          Hashtbl.add by_name cmt.cmt_modname id;
          collect_structure u [] str;
          collect_refs u str;
          if String.starts_with ~prefix:"lib/" ml then
            implemented := str_items id ml [] str !implemented
      | Some src, Cmt_format.Interface sg ->
          let mli = source_of ~root file src in
          if String.starts_with ~prefix:"lib/" mli then
            declared := sig_items id mli [] sg !declared
      | _ -> ())
    files;
  if !cmts = 0 then begin
    Printf.eprintf "dead_exports: no .cmt files under %s; run 'dune build @check' first\n" root;
    exit 2
  end;
  let refs : (string * string list * string, who) Hashtbl.t = Hashtbl.create 8192 in
  let passes : (string * string list * string * string, who) Hashtbl.t = Hashtbl.create 1024 in
  (* Labels read and constructors built, keyed by the type's module path
     and name, and the label or constructor. *)
  let used : (string * string list * string, who) Hashtbl.t = Hashtbl.create 4096 in
  let wholes = ref [] in
  let who u (l : modloc) = if l.unit = u.id then Self else u.category in
  (* The defining modules a value path reaches, with the value's name. *)
  let targets u = function
    | Path.Pident id ->
        Option.fold ~none:[]
          ~some:(fun l -> [ (l, Ident.name id) ])
          (Ident.Tbl.find_opt u.values id)
    | Path.Pdot (m, s) -> (
        match resolve_module 0 u.id m with
        | Some l ->
            List.map (fun l -> (l, s))
              (Option.value (include_chain defined 0 l s) ~default:[ l ])
        | None -> [])
    | Path.Papply _ | Path.Pextra_ty _ -> []
  in
  Hashtbl.iter
    (fun _ u ->
      List.iter
        (fun (p, whole) ->
          if whole then
            match resolve_module 0 u.id p with
            | Some l when l.unit <> u.id -> wholes := (l, u.category) :: !wholes
            | _ -> ()
          else
            List.iter
              (fun ((l : modloc), s) -> Hashtbl.add refs (l.unit, l.path, s) (who u l))
              (targets u p))
        u.refs;
      List.iter
        (fun (p, labels) ->
          List.iter
            (fun ((l : modloc), s) ->
              List.iter (fun lab -> Hashtbl.add passes (l.unit, l.path, s, lab) (who u l)) labels)
            (targets u p))
        u.passes;
      List.iter
        (fun (p, name) ->
          List.iter
            (fun (unit, path, t) -> Hashtbl.add used (unit, path @ [ t ], name) u.category)
            (type_keys 0 u.id p))
        u.uses;
      (* A comparison reads every label of each record it reaches. *)
      let seen = Hashtbl.create 16 in
      let rec compare_type unit p =
        List.iter
          (fun ((unit', path, t) as key) ->
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              Option.iter
                (fun (labels, held) ->
                  List.iter (fun l -> Hashtbl.add used (unit', path @ [ t ], l) u.category) labels;
                  List.iter (compare_type unit') held)
                (Hashtbl.find_opt records key)
            end)
          (type_keys 0 unit p)
      in
      List.iter (compare_type u.id) u.compared)
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
    else if List.mem Test who then Some Test_only
    else if List.mem Self who then Some (Flagged "used only inside its own module")
    else Some (Flagged "referenced nowhere")
  in
  let option_status v label =
    let unit, path, name = v.key in
    let who = Hashtbl.find_all passes (unit, path, name, label) in
    if List.mem Prod who then None
    else if List.mem Test who then Some Test_only
    else if List.mem Self who then Some (Flagged "passed only inside its own module")
    else Some (Flagged "passed nowhere")
  in
  let use_status v =
    let who = Hashtbl.find_all used v.key in
    if List.mem Prod who then None
    else if List.mem Test who then Some Test_only
    else Some (Flagged (if v.kind = Field then "read nowhere" else "built nowhere"))
  in
  let place v = (v.file, v.line, v.name) in
  let by_place = List.sort (fun a b -> compare (place a) (place b)) in
  let vals = by_place (List.filter (fun v -> v.kind = Val) !declared) |> List.map (fun v -> (v, status v)) in
  (* Options of the vals production reaches, named [val?label]. *)
  let options =
    List.concat_map
      (fun (v, st) ->
        if st <> None then []
        else
          List.map
            (fun l -> ({ v with name = v.name ^ "?" ^ l; kind = Option }, option_status v l))
            v.options)
      vals
  in
  (* An implementation's types count where its interface does not
     declare them. *)
  let types =
    let in_interface = List.map (fun v -> v.key) !declared in
    List.filter (fun v -> v.kind <> Val) !declared
    @ List.filter (fun v -> not (List.mem v.key in_interface)) !implemented
    |> by_place
    |> List.map (fun v -> (v, use_status v))
  in
  let fields = List.filter (fun (v, _) -> v.kind = Field) types
  and constructors = List.filter (fun (v, _) -> v.kind = Constructor) types in
  let items = vals @ options @ types in
  let is_allowed v = List.mem (v.file, v.name) allowed in
  let unallowed =
    List.filter_map
      (fun (v, st) ->
        match st with
        | Some _ when is_allowed v -> None
        | Some (Flagged w) -> Some (v, w)
        | Some Test_only ->
            Some
              ( v,
                match v.kind with
                | Val -> "reached only from tests"
                | Option -> "passed only from tests"
                | Field -> "read only from tests"
                | Constructor -> "built only from tests" )
        | None -> None)
      items
    |> List.sort (fun (a, _) (b, _) -> compare (place a) (place b))
  in
  List.iter (fun (v, what) -> Printf.printf "%s:%d: %s is %s\n" v.file v.line v.name what) unallowed;
  let stale =
    List.filter_map
      (fun ((_, name) as entry) ->
        match List.find_opt (fun (v, _) -> (v.file, v.name) = entry) items with
        | Some (_, Some _) -> None
        | Some (v, None) ->
            Some
              ( entry,
                match v.kind with
                | Val -> "it has a production caller"
                | Option -> "production passes it"
                | Field -> "production reads it"
                | Constructor -> "production builds it" )
        | None ->
            (* A field or constructor entry names its type, a
               lowercase segment, right before the last. *)
            let typed =
              match List.rev (String.split_on_char '.' name) with
              | _ :: t :: _ -> t <> "" && Char.lowercase_ascii t.[0] = t.[0]
              | _ -> false
            in
            Some
              (entry, if typed then "no such field or constructor" else "no such val or option"))
      allowed
  in
  List.iter
    (fun ((mli, name), why) -> Printf.printf "allowlist: %s %s is stale: %s\n" mli name why)
    stale;
  let summary what items =
    let count p = List.length (List.filter (fun (_, st) -> p st) items) in
    let flagged = count (function Some (Flagged _) -> true | _ -> false)
    and test_only = count (( = ) (Some Test_only))
    and listed = List.length (List.filter (fun (v, st) -> st <> None && is_allowed v) items) in
    Printf.printf "%d %s checked, %d flagged, %d test-only, %d allowlisted\n"
      (List.length items) what flagged test_only listed
  in
  summary "vals" vals;
  summary "options" options;
  summary "fields" fields;
  summary "constructors" constructors;
  exit (if unallowed <> [] || stale <> [] then 1 else 0)
