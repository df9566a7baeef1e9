(* Proxy cache: semantic caching of LDAP queries with templates.

   This mirrors the OpenLDAP proxy-cache engine the paper's containment
   algorithms shipped in (section 4.1): the proxy admits queries whose
   filters match a configured set of templates, caches their results,
   and answers later queries that are semantically contained in a
   cached one — including across templates, e.g. an equality query
   answered by a cached prefix query.

   Run with: dune exec examples/proxy_cache.exe *)

open Ldap
module C = Ldap_containment
module Dirgen = Ldap_dirgen
module Replication = Ldap_replication


(* The proxy's admission policy: cacheable query prototypes. *)
let registry =
  let r = C.Template_registry.create () in
  (match
     C.Template_registry.declare_strings r
       [ "(serialnumber=_)"; "(serialnumber=_*)"; "(mail=_)";
         "(&(departmentnumber=_)(divisionnumber=_))" ]
   with
  | Ok () -> ()
  | Error e -> failwith e);
  r

let admitted q = C.Template_registry.admit registry q

let () =
  let enterprise =
    Dirgen.Enterprise.build
      { Dirgen.Enterprise.default_config with Dirgen.Enterprise.employees = 5_000 }
  in
  let backend = Dirgen.Enterprise.backend enterprise in
  let cache = Replication.Query_cache.create ~capacity:200 in
  let root = Dirgen.Enterprise.root_dn enterprise in

  let hits = ref 0 and misses = ref 0 and rejected = ref 0 in
  let ask filter_s =
    let q = Query.make ~base:root (Filter.of_string_exn filter_s) in
    match Replication.Query_cache.answer cache q with
    | Some entries ->
        incr hits;
        Printf.printf "HIT    %-45s -> %d entries (from cache)\n" filter_s
          (List.length entries)
    | None ->
        let entries =
          match Backend.search backend q with
          | Ok { Backend.entries; _ } -> entries
          | Error _ -> []
        in
        if admitted q then begin
          incr misses;
          Replication.Query_cache.add cache q entries;
          Printf.printf "MISS   %-45s -> %d entries (cached)\n" filter_s
            (List.length entries)
        end
        else begin
          incr rejected;
          Printf.printf "PASS   %-45s -> %d entries (not cacheable)\n" filter_s
            (List.length entries)
        end
  in

  (* A block query populates the cache... *)
  let block =
    (Dirgen.Enterprise.employees enterprise).(0).Dirgen.Enterprise.emp_serial
  in
  let prefix = String.sub block 0 (String.length block - 1) in
  ask (Printf.sprintf "(serialNumber=%s*)" prefix);
  (* ...and answers every lookup inside the block without a round trip. *)
  ask (Printf.sprintf "(serialNumber=%s)" block);
  ask (Printf.sprintf "(serialNumber=%s5)" prefix);
  (* A department query and its exact repeat. *)
  ask "(&(departmentNumber=0003)(divisionNumber=00))";
  ask "(&(departmentNumber=0003)(divisionNumber=00))";
  (* Outside the admitted templates: served but never cached. *)
  ask "(sn=doe)";
  ask "(sn=doe)";
  (* A different block misses. *)
  ask "(serialNumber=9999999)";

  Printf.printf "\ncache: %d queries held, %d hits / %d misses / %d pass-through\n"
    (Replication.Query_cache.length cache) !hits !misses !rejected;
  Printf.printf "containment checks performed: %d\n"
    (Replication.Query_cache.comparisons cache);
  print_endline "\nadmission statistics per declared template:";
  List.iter
    (fun (shape, stats) ->
      Printf.printf "  %-45s observed %d, admitted %d\n" shape
        stats.C.Template_registry.observed stats.C.Template_registry.admitted)
    (C.Template_registry.report registry);
  Printf.printf "  %-45s observed %d\n" "(unclassified)"
    (C.Template_registry.unclassified registry)
