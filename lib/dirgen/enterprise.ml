open Ldap

type config = {
  seed : int;
  countries : int;
  employees : int;
  divisions : int;
  departments_per_division : int;
  locations : int;
  target_countries : int;
  target_share : float;
}

let default_config =
  {
    seed = 42;
    countries = 20;
    employees = 20_000;
    divisions = 8;
    departments_per_division = 50;
    locations = 40;
    target_countries = 5;
    target_share = 0.30;
  }

type employee = {
  emp_dn : Dn.t;
  emp_country : int;
  emp_seq : int;
  emp_serial : string;
  emp_mail : string;
  emp_dept : string;
}

type t = {
  config : config;
  backend : Backend.t;
  root : Dn.t;
  country_dns : Dn.t array;
  country_codes : string array;
  by_country : employee array array;
  all : employee array;
  division_dns : Dn.t array;
  depts : string array;
  locations_base : Dn.t;
  location_names : string array;
}

let code_of_country i =
  Printf.sprintf "%c%c" (Char.chr (Char.code 'a' + (i / 26 mod 26))) (Char.chr (Char.code 'a' + (i mod 26)))

let dept_number ~division ~dept = Printf.sprintf "%02d%02d" division dept

let must = function Ok x -> x | Error e -> failwith ("Enterprise.build: " ^ e)
let must_apply b op = ignore (must (Backend.apply b op))

(* --- Streaming generator --------------------------------------------
   One deterministic pass over the whole directory, yielding each entry
   to a callback in build order — root, countries, divisions,
   departments, locations, then employees country by country.  Nothing
   is materialized, so generating 500k+ entries costs the PRNG draws
   and the entries the consumer chooses to keep; [build] is one such
   consumer, the scale sweep's backend seeder another. *)

type generated = Structural of Entry.t | Person of employee * Entry.t

let per_country_counts config =
  Array.init config.countries (fun i ->
      if i < config.target_countries then
        int_of_float
          (config.target_share *. float_of_int config.employees
          /. float_of_int config.target_countries)
      else
        int_of_float
          ((1.0 -. config.target_share) *. float_of_int config.employees
          /. float_of_int (config.countries - config.target_countries)))

let generate config ~f =
  let prng = Prng.create config.seed in
  let root = Dn.of_string_exn "o=xyz" in
  f (Structural (Entry.make root [ ("objectclass", [ "organization" ]); ("o", [ "xyz" ]) ]));
  (* Countries. *)
  let country_codes = Array.init config.countries code_of_country in
  let country_dns =
    Array.map (fun code -> Dn.child_ava root "c" code) country_codes
  in
  Array.iter
    (fun code ->
      f
        (Structural
           (Entry.make
              (Dn.child_ava root "c" code)
              [ ("objectclass", [ "country" ]); ("c", [ code ]) ])))
    country_codes;
  (* Divisions and departments. *)
  let divisions_base = Dn.child_ava root "ou" "divisions" in
  f
    (Structural
       (Entry.make divisions_base
          [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "divisions" ]) ]));
  let division_dns =
    Array.init config.divisions (fun d ->
        Dn.child_ava divisions_base "ou" (Printf.sprintf "div-%02d" d))
  in
  Array.iteri
    (fun d dn ->
      f
        (Structural
           (Entry.make dn
              [
                ("objectclass", [ "organizationalUnit" ]);
                ("ou", [ Printf.sprintf "div-%02d" d ]);
                ("divisionNumber", [ Printf.sprintf "%02d" d ]);
              ])))
    division_dns;
  Array.iteri
    (fun d div_dn ->
      for k = 0 to config.departments_per_division - 1 do
        let number = dept_number ~division:d ~dept:k in
        f
          (Structural
             (Entry.make
                (Dn.child_ava div_dn "ou" ("dept-" ^ number))
                [
                  ("objectclass", [ "organizationalUnit" ]);
                  ("ou", [ "dept-" ^ number ]);
                  ("departmentNumber", [ number ]);
                  ("divisionNumber", [ Printf.sprintf "%02d" d ]);
                  ("description", [ "department " ^ number ]);
                ]))
      done)
    division_dns;
  (* Locations: a small, hot subtree (section 7.2(c)). *)
  let locations_base = Dn.child_ava root "ou" "locations" in
  f
    (Structural
       (Entry.make locations_base
          [ ("objectclass", [ "organizationalUnit" ]); ("ou", [ "locations" ]) ]));
  for i = 0 to config.locations - 1 do
    let name = Printf.sprintf "site-%02d" i in
    f
      (Structural
         (Entry.make
            (Dn.child_ava locations_base "l" name)
            [
              ("objectclass", [ "locality" ]);
              ("l", [ name ]);
              ("location", [ name ]);
              ("description", [ "location " ^ name ]);
            ]))
  done;
  (* Employees: target countries share [target_share] evenly, the rest
     split the remainder. *)
  let per_country = per_country_counts config in
  Array.iteri
    (fun ci n ->
      let cdn = country_dns.(ci) in
      let code = country_codes.(ci) in
      for seq = 0 to n - 1 do
        let given = Namegen.given_name prng and sur = Namegen.surname prng in
        let serial = Namegen.serial ~country_index:ci ~seq in
        let local = Namegen.mail_local_part prng ~given ~sur ~seq in
        let mail = Printf.sprintf "%s@%s.xyz.com" local code in
        let division = Prng.int prng config.divisions in
        let dept =
          dept_number ~division ~dept:(Prng.int prng config.departments_per_division)
        in
        let cn = Printf.sprintf "%s %s %s" given sur serial in
        let dn = Dn.child_ava cdn "cn" cn in
        let entry =
          Entry.make dn
            [
              ("objectclass", [ "inetOrgPerson" ]);
              ("cn", [ cn ]);
              ("sn", [ sur ]);
              ("givenName", [ given ]);
              ("uid", [ Namegen.uid ~country_index:ci ~seq ]);
              ("mail", [ mail ]);
              ("serialNumber", [ serial ]);
              ("departmentNumber", [ dept ]);
              ("telephoneNumber",
               [ Printf.sprintf "%03d-%04d" (Prng.int prng 1000) (Prng.int prng 10000) ]);
              ("employeeType", [ (if Prng.bool prng 0.9 then "regular" else "contractor") ]);
              ("description", [ "employee record for " ^ cn ]);
            ]
        in
        f
          (Person
             ( { emp_dn = dn; emp_country = ci; emp_seq = seq; emp_serial = serial;
                 emp_mail = mail; emp_dept = dept },
               entry ))
      done)
    per_country

let indexed_attrs =
  [ "serialnumber"; "mail"; "departmentnumber"; "divisionnumber"; "uid"; "cn"; "location" ]

let build config =
  let backend = Backend.create ~indexed:indexed_attrs () in
  let root = Dn.of_string_exn "o=xyz" in
  let country_codes = Array.init config.countries code_of_country in
  let country_dns =
    Array.map (fun code -> Dn.child_ava root "c" code) country_codes
  in
  let divisions_base = Dn.child_ava root "ou" "divisions" in
  let division_dns =
    Array.init config.divisions (fun d ->
        Dn.child_ava divisions_base "ou" (Printf.sprintf "div-%02d" d))
  in
  let depts =
    Array.init
      (config.divisions * config.departments_per_division)
      (fun i ->
        dept_number
          ~division:(i / config.departments_per_division)
          ~dept:(i mod config.departments_per_division))
  in
  let locations_base = Dn.child_ava root "ou" "locations" in
  let location_names =
    Array.init config.locations (fun i -> Printf.sprintf "site-%02d" i)
  in
  let by_country_rev = Array.make config.countries [] in
  let n = ref 0 in
  generate config ~f:(fun g ->
      incr n;
      match g with
      | Structural e when !n = 1 -> must (Backend.add_context backend e)
      | Structural e -> must_apply backend (Update.add e)
      | Person (emp, e) ->
          must_apply backend (Update.add e);
          by_country_rev.(emp.emp_country) <- emp :: by_country_rev.(emp.emp_country));
  let by_country = Array.map (fun l -> Array.of_list (List.rev l)) by_country_rev in
  (* Experiments measure only their own update streams. *)
  Backend.trim_log backend ~before:(Csn.next (Backend.csn backend));
  {
    config;
    backend;
    root;
    country_dns;
    country_codes;
    by_country;
    all = Array.concat (Array.to_list by_country);
    division_dns;
    depts;
    locations_base;
    location_names;
  }

let config t = t.config
let backend t = t.backend
let schema _ = Schema.default
let root_dn t = t.root
let country_dn t i = t.country_dns.(i)
let country_code t i = t.country_codes.(i)
let division_dn t i = t.division_dns.(i)
let locations_dn t = t.locations_base
let location_names t = t.location_names
let employees t = t.all
let employees_of_country t i = t.by_country.(i)
let person_count t = Array.length t.all

let dept_numbers t = t.depts

(* --- Partition keys ---------------------------------------------------
   The write path shards on the serial-number country block; these
   accessors expose the block and its geography for generated data so a
   partitioner never has to re-derive either from a DN. *)

let serial_block t i =
  if i < 0 || i >= t.config.countries then
    invalid_arg "Enterprise.serial_block: no such country";
  Namegen.serial_block ~country_index:i

let partition_blocks t =
  Array.init t.config.countries (fun i ->
      (Namegen.serial_block ~country_index:i, t.country_dns.(i)))
