open Ldap
module E = Ldap_dirgen.Enterprise
module Prng = Ldap_dirgen.Prng
module Namegen = Ldap_dirgen.Namegen

type live = { mutable dn : Dn.t; country : int }
type kind = Phone | Mail | Hire | Leave | Rename | Dept

type t = {
  ent : E.t;
  prng : Prng.t;
  mutable live : live array;
  mutable live_count : int;
  next_seq : int array;
  mutable renamed : int;
  block : kind array;
  mutable block_pos : int;
}

(* Update_stream.default_config's weights, as counts per block of 100. *)
let mix = [ (Phone, 45); (Mail, 20); (Hire, 14); (Leave, 14); (Rename, 5); (Dept, 2) ]

let next_kind t =
  if t.block_pos = Array.length t.block then begin
    Prng.shuffle t.prng t.block;
    t.block_pos <- 0
  end;
  let k = t.block.(t.block_pos) in
  t.block_pos <- t.block_pos + 1;
  k

let create ent ~seed =
  let emps = E.employees ent in
  let countries = (E.config ent).E.countries in
  let next_seq = Array.make countries 0 in
  Array.iter
    (fun (e : E.employee) ->
      next_seq.(e.E.emp_country) <- max next_seq.(e.E.emp_country) (e.E.emp_seq + 1))
    emps;
  let block = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) mix) in
  {
    ent;
    prng = Prng.create seed;
    live = Array.map (fun (e : E.employee) -> { dn = e.E.emp_dn; country = e.E.emp_country }) emps;
    live_count = Array.length emps;
    next_seq;
    renamed = 0;
    block;
    block_pos = Array.length block;
  }

let phone t = Printf.sprintf "%03d-%04d" (Prng.int t.prng 1000) (Prng.int t.prng 10000)

let hire t =
  let cfg = E.config t.ent in
  let ci = Prng.int t.prng cfg.E.countries in
  let seq = t.next_seq.(ci) in
  t.next_seq.(ci) <- seq + 1;
  let given = Namegen.given_name t.prng and sur = Namegen.surname t.prng in
  let serial = Namegen.serial ~country_index:ci ~seq in
  let code = E.country_code t.ent ci in
  let local = Namegen.mail_local_part t.prng ~given ~sur ~seq in
  let cn = Printf.sprintf "%s %s %s" given sur serial in
  let dn = Dn.child_ava (E.country_dn t.ent ci) "cn" cn in
  let dept =
    Printf.sprintf "%02d%02d" (Prng.int t.prng cfg.E.divisions)
      (Prng.int t.prng cfg.E.departments_per_division)
  in
  let entry =
    Entry.make dn
      [
        ("objectclass", [ "inetOrgPerson" ]);
        ("cn", [ cn ]);
        ("sn", [ sur ]);
        ("givenName", [ given ]);
        ("mail", [ Printf.sprintf "%s@%s.xyz.com" local code ]);
        ("serialNumber", [ serial ]);
        ("departmentNumber", [ dept ]);
        ("telephoneNumber", [ phone t ]);
      ]
  in
  if t.live_count = Array.length t.live then begin
    let bigger = Array.make (max 16 (2 * t.live_count)) { dn; country = ci } in
    Array.blit t.live 0 bigger 0 t.live_count;
    t.live <- bigger
  end;
  t.live.(t.live_count) <- { dn; country = ci };
  t.live_count <- t.live_count + 1;
  Update.add entry

let rec next t =
  let kind = next_kind t in
  if t.live_count = 0 && kind <> Dept then hire t
  else
    match kind with
    | Hire -> hire t
    | Phone ->
        let l = t.live.(Prng.int t.prng t.live_count) in
        Update.modify l.dn [ Update.replace_values "telephoneNumber" [ phone t ] ]
    | Mail ->
        let l = t.live.(Prng.int t.prng t.live_count) in
        let mail =
          Printf.sprintf "m%06x@%s.xyz.com" (Prng.int t.prng 0xFFFFFF)
            (E.country_code t.ent l.country)
        in
        Update.modify l.dn [ Update.replace_values "mail" [ mail ] ]
    | Leave ->
        let i = Prng.int t.prng t.live_count in
        let dn = t.live.(i).dn in
        t.live.(i) <- t.live.(t.live_count - 1);
        t.live_count <- t.live_count - 1;
        Update.delete dn
    | Rename -> (
        let l = t.live.(Prng.int t.prng t.live_count) in
        t.renamed <- t.renamed + 1;
        match Dn.rdn_of_string (Printf.sprintf "cn=renamed %07d" t.renamed) with
        | Error _ -> next t
        | Ok rdn ->
            let old_dn = l.dn in
            l.dn <- Dn.child (Option.value ~default:old_dn (Dn.parent old_dn)) rdn;
            Update.modify_dn old_dn rdn)
    | Dept ->
        let depts = E.dept_numbers t.ent in
        let number = depts.(Prng.int t.prng (Array.length depts)) in
        let division = int_of_string (String.sub number 0 2) in
        let dn = Dn.child_ava (E.division_dn t.ent division) "ou" ("dept-" ^ number) in
        Update.modify dn
          [
            Update.replace_values "description"
              [ Printf.sprintf "department %s rev %d" number (Prng.int t.prng 1000) ];
          ]
