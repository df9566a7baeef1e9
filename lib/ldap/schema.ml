module Smap = Map.Make (String)

type attribute_type = {
  at_name : string;
  at_aliases : string list;
  at_syntax : Value.syntax;
  at_single_value : bool;
}

type object_class = {
  oc_name : string;
  oc_sup : string option;
  oc_must : string list;
  oc_may : string list;
}

type t = {
  attrs : attribute_type Smap.t;
  canon : string Smap.t;  (* every name and alias -> canonical name, all lowercased *)
  classes : object_class Smap.t;
}

let empty = { attrs = Smap.empty; canon = Smap.empty; classes = Smap.empty }
let key = Value.lowercase

let add_attribute t at =
  let names = at.at_name :: at.at_aliases and canonical = key at.at_name in
  {
    t with
    attrs = List.fold_left (fun m name -> Smap.add (key name) at m) t.attrs names;
    canon = List.fold_left (fun m name -> Smap.add (key name) canonical m) t.canon names;
  }

let add_object_class t oc = { t with classes = Smap.add (key oc.oc_name) oc t.classes }
let attribute_type t name = Smap.find_opt (key name) t.attrs

let syntax_of t name =
  match Smap.find (key name) t.attrs with
  | at -> at.at_syntax
  | exception Not_found -> Value.Case_ignore

let is_single_valued t name =
  match attribute_type t name with Some at -> at.at_single_value | None -> false

let object_class t name = Smap.find_opt (key name) t.classes

(* Walk the superclass chain, accumulating with [f]; chains are short
   and acyclic in any sane schema, but guard against cycles anyway. *)
let fold_class_chain t name f acc =
  let rec go seen name acc =
    if List.mem (key name) seen then acc
    else
      match object_class t name with
      | None -> acc
      | Some oc ->
          let acc = f oc acc in
          (match oc.oc_sup with
          | None -> acc
          | Some sup -> go (key name :: seen) sup acc)
  in
  go [] name acc

let dedup names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      let k = key n in
      if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
    names

let required_attributes t name =
  dedup (fold_class_chain t name (fun oc acc -> acc @ oc.oc_must) [])

let allowed_attributes t name =
  dedup (fold_class_chain t name (fun oc acc -> acc @ oc.oc_must @ oc.oc_may) [])

let canonical_attr t name =
  let k = key name in
  match Smap.find k t.canon with c -> c | exception Not_found -> k

let at ?(aliases = []) ?(single = false) name syntax =
  { at_name = name; at_aliases = aliases; at_syntax = syntax; at_single_value = single }

let oc ?sup ?(must = []) ?(may = []) name =
  { oc_name = name; oc_sup = sup; oc_must = must; oc_may = may }

let default =
  let attrs =
    [
      at "objectClass" Value.Case_ignore;
      at "cn" ~aliases:[ "commonName" ] Value.Case_ignore;
      at "sn" ~aliases:[ "surname" ] Value.Case_ignore;
      at "givenName" Value.Case_ignore;
      at "uid" ~aliases:[ "userid" ] Value.Case_ignore;
      at "mail" ~aliases:[ "rfc822Mailbox" ] Value.Case_ignore;
      at "telephoneNumber" Value.Telephone;
      at "serialNumber" ~single:true Value.Case_ignore;
      at "employeeNumber" ~single:true Value.Case_ignore;
      at "departmentNumber" ~aliases:[ "dept" ] Value.Case_ignore;
      at "divisionNumber" ~aliases:[ "div" ] Value.Case_ignore;
      at "location" ~single:true Value.Case_ignore;
      at "buildingName" Value.Case_ignore;
      at "roomNumber" Value.Case_ignore;
      at "title" Value.Case_ignore;
      at "employeeType" Value.Case_ignore;
      at "manager" Value.Case_ignore;
      at "age" ~single:true Value.Integer;
      at "ou" ~aliases:[ "organizationalUnitName" ] Value.Case_ignore;
      at "o" ~aliases:[ "organizationName" ] Value.Case_ignore;
      at "c" ~aliases:[ "countryName" ] ~single:true Value.Case_ignore;
      at "l" ~aliases:[ "localityName" ] Value.Case_ignore;
      at "dc" ~aliases:[ "domainComponent" ] ~single:true Value.Case_ignore;
      at "description" Value.Case_ignore;
      at "postalAddress" Value.Case_ignore;
      at "postalCode" Value.Case_ignore;
      at "ref" Value.Case_exact;
      at "seeAlso" Value.Case_ignore;
      at "displayName" ~single:true Value.Case_ignore;
      at "preferredLanguage" ~single:true Value.Case_ignore;
      at "modifyTimestamp" ~single:true Value.Case_ignore;
    ]
  in
  let classes =
    [
      oc "top" ~must:[ "objectClass" ];
      oc "person" ~sup:"top" ~must:[ "cn"; "sn" ]
        ~may:[ "telephoneNumber"; "description"; "seeAlso" ];
      oc "organizationalPerson" ~sup:"person"
        ~may:[ "ou"; "title"; "postalAddress"; "postalCode"; "l"; "roomNumber" ];
      oc "inetOrgPerson" ~sup:"organizationalPerson"
        ~may:
          [
            "uid"; "mail"; "givenName"; "displayName"; "employeeNumber";
            "employeeType"; "departmentNumber"; "divisionNumber";
            "serialNumber"; "manager"; "location"; "preferredLanguage";
            "buildingName"; "age";
          ];
      oc "organization" ~sup:"top" ~must:[ "o" ]
        ~may:[ "description"; "telephoneNumber"; "postalAddress"; "l" ];
      oc "organizationalUnit" ~sup:"top" ~must:[ "ou" ]
        ~may:
          [
            "description"; "telephoneNumber"; "postalAddress"; "l";
            "divisionNumber"; "departmentNumber"; "location";
          ];
      oc "country" ~sup:"top" ~must:[ "c" ] ~may:[ "description" ];
      oc "locality" ~sup:"top"
        ~may:[ "l"; "description"; "location"; "buildingName" ];
      oc "domain" ~sup:"top" ~must:[ "dc" ] ~may:[ "description" ];
      oc "referral" ~sup:"top" ~must:[ "ref" ];
      oc "extensibleObject" ~sup:"top";
    ]
  in
  let t = List.fold_left add_attribute empty attrs in
  List.fold_left add_object_class t classes
