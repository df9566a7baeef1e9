module Smap = Map.Make (String)

type attribute_type = {
  at_name : string;
  at_aliases : string list;
  at_syntax : Value.syntax;
  at_single_value : bool;
}

type t = {
  attrs : attribute_type Smap.t;
  canon : string Smap.t;  (* every name and alias -> canonical name, all lowercased *)
}

let empty = { attrs = Smap.empty; canon = Smap.empty }
let key = Value.lowercase

let add_attribute t at =
  let names = at.at_name :: at.at_aliases and canonical = key at.at_name in
  {
    attrs = List.fold_left (fun m name -> Smap.add (key name) at m) t.attrs names;
    canon = List.fold_left (fun m name -> Smap.add (key name) canonical m) t.canon names;
  }

let attribute_type t name = Smap.find_opt (key name) t.attrs

let syntax_of t name =
  match Smap.find (key name) t.attrs with
  | at -> at.at_syntax
  | exception Not_found -> Value.Case_ignore

let is_single_valued t name =
  match attribute_type t name with Some at -> at.at_single_value | None -> false

let canonical_attr t name =
  let k = key name in
  match Smap.find k t.canon with c -> c | exception Not_found -> k

let at ?(aliases = []) ?(single = false) name syntax =
  { at_name = name; at_aliases = aliases; at_syntax = syntax; at_single_value = single }

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
  List.fold_left add_attribute empty attrs
