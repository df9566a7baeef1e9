open Ldap

let region_and_attrs_ok ~query ~stored =
  Query.region_subset ~inner:query ~outer:stored
  && Query.attrs_subset ~sub:query.Query.attrs ~super:stored.Query.attrs

let contained schema ~query ~stored =
  region_and_attrs_ok ~query ~stored
  && Filter_containment.contained schema query.Query.filter stored.Query.filter
