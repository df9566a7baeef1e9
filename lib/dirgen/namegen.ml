let given_names =
  [|
    "john"; "jane"; "wei"; "ravi"; "maria"; "fatima"; "olga"; "hans"; "yuki";
    "carlos"; "amara"; "liam"; "noor"; "ivan"; "chen"; "priya"; "sofia";
    "emeka"; "lars"; "aiko"; "diego"; "leila"; "tomas"; "ingrid"; "kofi";
    "anya"; "pedro"; "mira"; "jonas"; "zara";
  |]

let surnames =
  [|
    "doe"; "smith"; "kumar"; "garcia"; "wang"; "mueller"; "tanaka"; "okafor";
    "ivanov"; "rossi"; "silva"; "khan"; "nielsen"; "dubois"; "novak"; "haile";
    "berg"; "costa"; "moreau"; "jensen"; "patel"; "sato"; "lopez"; "weber";
    "kim"; "ali"; "fischer"; "santos"; "peters"; "arora";
  |]

let given_name prng = Prng.pick prng given_names
let surname prng = Prng.pick prng surnames

let serial ~country_index ~seq = Printf.sprintf "%02d%05d" country_index seq

let serial_block ~country_index = Printf.sprintf "%02d" country_index

let mail_local_part prng ~given ~sur ~seq =
  (* Two initials then a hash-like disambiguator: no usable prefix
     structure survives beyond the first two characters. *)
  let salt = Prng.int prng 100000 in
  let h = Hashtbl.hash (given, sur, seq, salt) mod 0xFFFFFF in
  Printf.sprintf "%c%c%06x" given.[0] sur.[0] h

let uid ~country_index ~seq = Printf.sprintf "u%02d%05d" country_index seq
