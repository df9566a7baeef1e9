module Stbl = Hashtbl.Make (String)

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
  let names at = List.to_seq (List.map (fun n -> (key n, at)) (at.at_canonical :: at.at_aliases)) in
  Stbl.of_seq (Seq.concat_map names (List.to_seq attribute_types))

let syntax_of name =
  match Stbl.find attrs (key name) with
  | at -> at.at_syntax
  | exception Not_found -> Value.Case_ignore

let is_single_valued name =
  match Stbl.find_opt attrs (key name) with Some at -> at.at_single_value | None -> false

let canonical_attr name =
  let k = key name in
  match Stbl.find attrs k with at -> at.at_canonical | exception Not_found -> k

(* The same two facts per interned attribute id, resolved from the
   table above the first time an id is asked about and read by index
   afterwards, so building a slot hashes no name.  [cids.(id) < 0]
   marks an id not resolved yet. *)
module Attr_id = Ldap_compile.Attr_id

let cids = ref [||]
let syntaxes = ref [||]

let resolve id =
  let n = Array.length !cids in
  if id >= n then begin
    let grow a fill =
      let b = Array.make (max (id + 1) (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    cids := grow !cids (-1);
    syntaxes := grow !syntaxes Value.Case_ignore
  end;
  let name = Attr_id.name id in
  !syntaxes.(id) <- syntax_of name;
  !cids.(id) <- Attr_id.intern (canonical_attr name)

let resolved id = id < Array.length !cids && !cids.(id) >= 0

let canonical_id id =
  if not (resolved id) then resolve id;
  !cids.(id)

let syntax_of_id id =
  if not (resolved id) then resolve id;
  !syntaxes.(id)

type t = unit

let default = ()
