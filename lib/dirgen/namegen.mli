(** Deterministic generation of person names, serial numbers and mail
    addresses for the synthetic enterprise directory. *)

val given_name : Prng.t -> string
(** A given name drawn from a fixed list. *)

val surname : Prng.t -> string
(** A surname drawn from a fixed list. *)

val serial : country_index:int -> seq:int -> string
(** Organized serial numbers: a country-block prefix followed by a
    zero-padded sequence, e.g. country 7, seq 123 -> "0700123".  The
    fixed-width layout is what makes prefix filters
    (serialNumber=07001...) describe contiguous blocks. *)

val serial_block : country_index:int -> string
(** The country-block prefix of every serial generated for the country
    — the natural partition key of the write path: deterministic,
    derivable without parsing a DN. *)

val mail_local_part : Prng.t -> given:string -> sur:string -> seq:int -> string
(** Unorganized local part: a name-derived token plus a pseudo-random
    disambiguator, so mail prefixes do {e not} form meaningful blocks
    (the section 7.2(c) observation that filter caching cannot
    describe the mail access pattern). *)

val uid : country_index:int -> seq:int -> string
