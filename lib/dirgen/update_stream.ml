open Ldap

type config = {
  seed : int;
  modify_phone_w : float;
  modify_mail_w : float;
  add_employee_w : float;
  delete_employee_w : float;
  rename_employee_w : float;
  modify_dept_entry_w : float;
}

let default_config =
  {
    seed = 11;
    modify_phone_w = 0.45;
    modify_mail_w = 0.20;
    add_employee_w = 0.14;
    delete_employee_w = 0.14;
    rename_employee_w = 0.05;
    modify_dept_entry_w = 0.02;
  }

type live = { mutable dn : Dn.t; country : int }

type t = {
  enterprise : Enterprise.t;
  config : config;
  prng : Prng.t;
  mutable live : live array;  (* compacted on delete *)
  mutable live_count : int;
  next_seq : int array;  (* per country, for hires *)
}

let create enterprise config =
  let emps = Enterprise.employees enterprise in
  let live =
    Array.map
      (fun (e : Enterprise.employee) ->
        { dn = e.Enterprise.emp_dn; country = e.Enterprise.emp_country })
      emps
  in
  let countries = (Enterprise.config enterprise).Enterprise.countries in
  let next_seq = Array.make countries 0 in
  Array.iter
    (fun (e : Enterprise.employee) ->
      next_seq.(e.Enterprise.emp_country) <-
        max next_seq.(e.Enterprise.emp_country) (e.Enterprise.emp_seq + 1))
    emps;
  {
    enterprise;
    config;
    prng = Prng.create config.seed;
    live;
    live_count = Array.length live;
    next_seq;
  }

type op_kind = Phone | MailMod | Hire | Leave | Rename | DeptMod

let pick_live t =
  if t.live_count = 0 then None
  else Some (Prng.int t.prng t.live_count)

let remove_live t i =
  t.live.(i) <- t.live.(t.live_count - 1);
  t.live_count <- t.live_count - 1

let add_live t entry_dn country =
  if t.live_count >= Array.length t.live then begin
    let bigger = Array.make (max 16 (2 * Array.length t.live)) { dn = entry_dn; country } in
    Array.blit t.live 0 bigger 0 t.live_count;
    t.live <- bigger
  end;
  t.live.(t.live_count) <- { dn = entry_dn; country };
  t.live_count <- t.live_count + 1

let backend t = Enterprise.backend t.enterprise

let apply t op =
  match Backend.apply (backend t) op with Ok _ -> true | Error _ -> false

let hire t =
  let countries = (Enterprise.config t.enterprise).Enterprise.countries in
  let ci = Prng.int t.prng countries in
  let seq = t.next_seq.(ci) in
  t.next_seq.(ci) <- seq + 1;
  let given = Namegen.given_name t.prng and sur = Namegen.surname t.prng in
  let serial = Namegen.serial ~country_index:ci ~seq in
  let code = Enterprise.country_code t.enterprise ci in
  let local = Namegen.mail_local_part t.prng ~given ~sur ~seq in
  let cn = Printf.sprintf "%s %s %s" given sur serial in
  let dn = Dn.child_ava (Enterprise.country_dn t.enterprise ci) "cn" cn in
  let divisions = (Enterprise.config t.enterprise).Enterprise.divisions in
  let dpd = (Enterprise.config t.enterprise).Enterprise.departments_per_division in
  let dept = Printf.sprintf "%02d%02d" (Prng.int t.prng divisions) (Prng.int t.prng dpd) in
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
        ("telephoneNumber",
         [ Printf.sprintf "%03d-%04d" (Prng.int t.prng 1000) (Prng.int t.prng 10000) ]);
      ]
  in
  if apply t (Update.add entry) then add_live t dn ci

let step t =
  let kind =
    Prng.weighted t.prng
      [
        (Phone, t.config.modify_phone_w);
        (MailMod, t.config.modify_mail_w);
        (Hire, t.config.add_employee_w);
        (Leave, t.config.delete_employee_w);
        (Rename, t.config.rename_employee_w);
        (DeptMod, t.config.modify_dept_entry_w);
      ]
  in
  match kind with
  | Hire -> hire t
  | Phone -> (
      match pick_live t with
      | None -> hire t
      | Some i ->
          let phone =
            Printf.sprintf "%03d-%04d" (Prng.int t.prng 1000) (Prng.int t.prng 10000)
          in
          ignore
            (apply t
               (Update.modify t.live.(i).dn [ Update.replace_values "telephoneNumber" [ phone ] ])))
  | MailMod -> (
      match pick_live t with
      | None -> hire t
      | Some i ->
          let code = Enterprise.country_code t.enterprise t.live.(i).country in
          let fresh =
            Printf.sprintf "m%06x@%s.xyz.com" (Prng.int t.prng 0xFFFFFF) code
          in
          ignore
            (apply t (Update.modify t.live.(i).dn [ Update.replace_values "mail" [ fresh ] ])))
  | Leave -> (
      match pick_live t with
      | None -> hire t
      | Some i ->
          if apply t (Update.delete t.live.(i).dn) then remove_live t i)
  | Rename -> (
      match pick_live t with
      | None -> hire t
      | Some i -> (
          let old_dn = t.live.(i).dn in
          let fresh_cn = Printf.sprintf "renamed %06d" (Prng.int t.prng 1_000_000) in
          match Dn.rdn_of_string ("cn=" ^ fresh_cn) with
          | Error _ -> ()
          | Ok rdn ->
              if apply t (Update.modify_dn old_dn rdn) then
                t.live.(i).dn <-
                  Dn.child (Option.value ~default:old_dn (Dn.parent old_dn)) rdn))
  | DeptMod ->
      let depts = Enterprise.dept_numbers t.enterprise in
      let number = depts.(Prng.int t.prng (Array.length depts)) in
      let division = int_of_string (String.sub number 0 2) in
      let dn =
        Dn.child_ava (Enterprise.division_dn t.enterprise division) "ou" ("dept-" ^ number)
      in
      ignore
        (apply t
           (Update.modify dn
              [ Update.replace_values "description"
                  [ Printf.sprintf "department %s rev %d" number (Prng.int t.prng 1000) ] ]))

let steps t n =
  for _ = 1 to n do
    step t
  done

