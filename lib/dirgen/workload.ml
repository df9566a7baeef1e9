open Ldap

type kind = Serial | Mail | Dept | Location

type item = { kind : kind; query : Query.t; scoped : Query.t }

type config = {
  seed : int;
  length : int;
  serial_pct : float;
  mail_pct : float;
  dept_pct : float;
  location_pct : float;
  geo_bias : float;
  block_digits : int;
  block_zipf_s : float;
  dept_zipf_s : float;
  repeat_p : float;
  repeat_window : int;
  dept_drift_every : int;
}

let default_config =
  {
    seed = 7;
    length = 20_000;
    serial_pct = 0.58;
    mail_pct = 0.24;
    dept_pct = 0.16;
    location_pct = 0.02;
    geo_bias = 0.75;
    block_digits = 1;
    block_zipf_s = 0.9;
    dept_zipf_s = 1.0;
    repeat_p = 0.18;
    repeat_window = 100;
    dept_drift_every = 2_500;
  }

let kind_name = function
  | Serial -> "serialNumber"
  | Mail -> "mail"
  | Dept -> "department"
  | Location -> "location"

let eq attr v = Filter.Pred (Filter.Equality (attr, v))

let generate enterprise config =
  let prng = Prng.create config.seed in
  let root = Enterprise.root_dn enterprise in
  let n_countries = (Enterprise.config enterprise).Enterprise.countries in
  let n_target = (Enterprise.config enterprise).Enterprise.target_countries in
  let block_size =
    int_of_float (Float.pow 10.0 (float_of_int config.block_digits))
  in
  (* Per-country Zipf over serial blocks. *)
  let block_zipfs =
    Array.init n_countries (fun ci ->
        let n = Array.length (Enterprise.employees_of_country enterprise ci) in
        let blocks = max 1 ((n + block_size - 1) / block_size) in
        Zipf.create ~s:config.block_zipf_s blocks)
  in
  (* Shuffled block ranks: the popular blocks should not always be the
     first serials of every country. *)
  let block_order =
    Array.init n_countries (fun ci ->
        let order = Array.init (Zipf.size block_zipfs.(ci)) (fun i -> i) in
        Prng.shuffle prng order;
        order)
  in
  let dept_zipf =
    Zipf.create ~s:config.dept_zipf_s (Array.length (Enterprise.dept_numbers enterprise))
  in
  let dept_order =
    let order = Array.init (Array.length (Enterprise.dept_numbers enterprise)) (fun i -> i) in
    Prng.shuffle prng order;
    order
  in
  (* Department popularity drifts over time: periodically a slice of
     hot departments trades places with cold ones, so a replica must
     keep adapting (the revolution-interval trade-off of Figures 5/7). *)
  let drift_depts () =
    let n = Array.length dept_order in
    for _ = 1 to max 1 (n / 8) do
      let i = Prng.int prng (max 1 (n / 5)) in
      let j = Prng.int prng n in
      let tmp = dept_order.(i) in
      dept_order.(i) <- dept_order.(j);
      dept_order.(j) <- tmp
    done
  in
  let loc_zipf =
    Zipf.create ~s:1.0 (Array.length (Enterprise.location_names enterprise))
  in
  let pick_country () =
    if Prng.bool prng config.geo_bias then Prng.int prng n_target
    else if n_countries > n_target then n_target + Prng.int prng (n_countries - n_target)
    else Prng.int prng n_countries
  in
  let pick_employee () =
    let ci = pick_country () in
    let emps = Enterprise.employees_of_country enterprise ci in
    let rank = Zipf.sample block_zipfs.(ci) prng in
    let block = block_order.(ci).(rank) in
    let lo = block * block_size in
    let hi = min (Array.length emps - 1) ((lo + block_size) - 1) in
    emps.(Prng.int_in prng lo hi)
  in
  (* Mail lookups carry no block structure: any employee of the chosen
     country is equally likely, so only temporal locality remains
     (section 7.2(c)). *)
  let pick_employee_flat () =
    let ci = pick_country () in
    let emps = Enterprise.employees_of_country enterprise ci in
    emps.(Prng.int prng (Array.length emps))
  in
  let fresh_item kind =
    match kind with
    | Serial ->
        let e = pick_employee () in
        let filter = eq "serialNumber" e.Enterprise.emp_serial in
        {
          kind;
          query = Query.make ~base:root filter;
          scoped =
            Query.make
              ~base:(Enterprise.country_dn enterprise e.Enterprise.emp_country)
              filter;
        }
    | Mail ->
        let e = pick_employee_flat () in
        let filter = eq "mail" e.Enterprise.emp_mail in
        {
          kind;
          query = Query.make ~base:root filter;
          scoped =
            Query.make
              ~base:(Enterprise.country_dn enterprise e.Enterprise.emp_country)
              filter;
        }
    | Dept ->
        let rank = Zipf.sample dept_zipf prng in
        let number = (Enterprise.dept_numbers enterprise).(dept_order.(rank)) in
        let division = int_of_string (String.sub number 0 2) in
        let filter =
          Filter.And
            [
              eq "departmentNumber" number;
              eq "divisionNumber" (Printf.sprintf "%02d" division);
            ]
        in
        {
          kind;
          query = Query.make ~base:root filter;
          scoped = Query.make ~base:(Enterprise.division_dn enterprise division) filter;
        }
    | Location ->
        let rank = Zipf.sample loc_zipf prng in
        let name = (Enterprise.location_names enterprise).(rank) in
        let filter = eq "location" name in
        {
          kind;
          query = Query.make ~base:root filter;
          scoped = Query.make ~base:(Enterprise.locations_dn enterprise) filter;
        }
  in
  let recent = Array.make (max 1 config.repeat_window) None in
  let recent_count = ref 0 in
  let items =
    Array.init config.length (fun i ->
        if config.dept_drift_every > 0 && i > 0 && i mod config.dept_drift_every = 0
        then drift_depts ();
        let repeat =
          !recent_count > 0 && Prng.bool prng config.repeat_p
        in
        let item =
          if repeat then
            let j = Prng.int prng (min !recent_count (Array.length recent)) in
            match recent.(j) with Some it -> it | None -> assert false
          else
            let kind =
              Prng.weighted prng
                [
                  (Serial, config.serial_pct);
                  (Mail, config.mail_pct);
                  (Dept, config.dept_pct);
                  (Location, config.location_pct);
                ]
            in
            fresh_item kind
        in
        recent.(i mod Array.length recent) <- Some item;
        if !recent_count < Array.length recent then incr recent_count;
        item)
  in
  items

let mix_of items =
  let total = float_of_int (Array.length items) in
  let count k =
    float_of_int (Array.fold_left (fun acc i -> if i.kind = k then acc + 1 else acc) 0 items)
  in
  List.map
    (fun k -> (k, count k /. total))
    [ Serial; Mail; Dept; Location ]
