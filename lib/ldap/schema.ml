module Smap = Map.Make (String)

let key = Value.lowercase

type attribute_type = {
  at_canonical : string;  (* the name, lowercased *)
  at_aliases : string list;
  at_syntax : Value.syntax;
  at_single_value : bool;
}

let at ?(aliases = []) ?(single = false) name syntax =
  { at_canonical = key name; at_aliases = aliases; at_syntax = syntax; at_single_value = single }

let attribute_types =
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

(* Every name and alias, lowercased, to its attribute type. *)
let attrs =
  List.fold_left
    (fun m at ->
      List.fold_left (fun m name -> Smap.add (key name) at m) m (at.at_canonical :: at.at_aliases))
    Smap.empty attribute_types

let syntax_of name =
  match Smap.find (key name) attrs with
  | at -> at.at_syntax
  | exception Not_found -> Value.Case_ignore

let is_single_valued name =
  match Smap.find_opt (key name) attrs with Some at -> at.at_single_value | None -> false

let canonical_attr name =
  let k = key name in
  match Smap.find k attrs with at -> at.at_canonical | exception Not_found -> k

type t = unit

let default = ()
