type mod_kind = Entry.mod_kind = Add_values | Delete_values | Replace_values

type mod_item = Entry.mod_item = { mod_kind : mod_kind; mod_attr : string; mod_values : string list }

type op =
  | Add of Entry.t
  | Delete of Dn.t
  | Modify of Dn.t * mod_item list
  | Modify_dn of {
      dn : Dn.t;
      new_rdn : Dn.rdn;
      delete_old_rdn : bool;
      new_superior : Dn.t option;
    }

type record = {
  csn : Csn.t;
  op : op;
  before : Entry.t option;
  after : Entry.t option;
}

let op_target = function
  | Add e -> Entry.dn e
  | Delete dn -> dn
  | Modify (dn, _) -> dn
  | Modify_dn { dn; _ } -> dn

let op_kind_name = function
  | Add _ -> "add"
  | Delete _ -> "delete"
  | Modify _ -> "modify"
  | Modify_dn _ -> "modifyDN"

let add e = Add e
let delete dn = Delete dn
let modify dn items = Modify (dn, items)

let modify_dn ?new_superior ?(delete_old_rdn = true) dn new_rdn =
  Modify_dn { dn; new_rdn; delete_old_rdn; new_superior }

let replace_values attr values =
  { mod_kind = Replace_values; mod_attr = attr; mod_values = values }
