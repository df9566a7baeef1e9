(** Synthetic enterprise directory modelled on the paper's case study
    (section 7.1).

    Shape: employees of each country are flat children of the country
    entry (the flat-namespace situation of section 3.3); department
    entries sit under their division entry; a small location subtree
    has a high access rate.  Serial numbers are organized — a
    fixed-width country-block prefix followed by a sequence — while
    mail local parts are unorganized, reproducing why prefix filters
    work for serialNumber but not for mail (section 7.2).

    Department numbers embed the division ("2406" = division 24,
    department 06), matching the paper's
    (departmentNumber=240...) example of semantic locality that is not
    spatial.

    The first [target_countries] countries form the remote geography
    (about 30% of employees by default) whose accesses the partial
    replica is meant to serve. *)

open Ldap

type config = {
  seed : int;
  countries : int;
  employees : int;
  divisions : int;
  departments_per_division : int;
  locations : int;
  target_countries : int;
  target_share : float;  (** Fraction of employees in the geography. *)
}

val default_config : config
(** 20 countries, 20000 employees, 8 divisions, 50 departments each,
    40 locations, 5 target countries holding 30% of employees,
    seed 42. *)

type employee = {
  emp_dn : Dn.t;
  emp_country : int;
  emp_seq : int;
  emp_serial : string;
  emp_mail : string;
  emp_dept : string;  (** departmentNumber value, e.g. "2406". *)
}

type t

val indexed_attrs : string list
(** The attribute indexes the generated directory is built with. *)

val build : config -> t
(** Constructs the whole DIT in a fresh indexed backend in one
    deterministic PRNG pass — root first, then countries, divisions,
    departments, locations, employees country by country — so every
    build of the same config is byte-identical.  The build is
    committed through normal update operations; the update log is
    trimmed afterwards so experiments only observe their own update
    streams. *)

(** {1 Accessors over a built directory} *)

val config : t -> config
(** The configuration the directory was built from. *)

val backend : t -> Backend.t
(** The populated, indexed backend. *)

val schema : t -> Schema.t
(** The one schema, {!Schema.default}.  Only the end-to-end benchmark
    still reads it, to pass to the two signatures that take it. *)

val root_dn : t -> Dn.t
(** The naming context, [o=xyz]. *)

val country_dn : t -> int -> Dn.t
(** DN of the [i]th country entry. *)

val country_code : t -> int -> string
(** Two-letter code of the [i]th country. *)

val division_dn : t -> int -> Dn.t
(** DN of the [d]th division entry. *)

val locations_dn : t -> Dn.t
(** Base of the hot locations subtree. *)

val location_names : t -> string array
(** Generated location names, in entry order. *)

val employees : t -> employee array
(** Every generated employee, countries concatenated in order. *)

val employees_of_country : t -> int -> employee array
(** The employees of one country, in generation order. *)

val person_count : t -> int
(** Employees generated (excludes scaffolding entries). *)

val dept_numbers : t -> string array
(** All department numbers, grouped by division prefix. *)

(** {1 Partition keys}

    Deterministic accessors for the natural sharding keys of the
    generated directory — the serial-number country block and its
    geography — so a write-path partitioner
    ({!Ldap_shard.Partition}-style) derives the key from generated
    data instead of re-parsing DNs. *)

val serial_block : t -> int -> string
(** The serial country-block prefix of the country ("07" for country
    7): the key every employee serial of that country starts with. *)

val partition_blocks : t -> (string * Dn.t) array
(** All (serial block, country DN) pairs, indexed by country — the
    block table plus geography a partitioner is built from. *)
