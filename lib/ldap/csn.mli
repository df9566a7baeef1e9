(** Change sequence numbers.

    A CSN totally orders committed updates at a master.  The simulation
    has no wall clock; CSNs are the only notion of time, which keeps
    every experiment deterministic.  ReSync cookies embed the CSN up to
    which a session has been synchronized. *)

type t

val zero : t
(** Before any update. *)

val next : t -> t
(** The CSN after this one: what the commit following it gets. *)

val equal : t -> t -> bool
(** Same commit. *)

val ( <= ) : t -> t -> bool
(** Committed at or before. *)

val ( < ) : t -> t -> bool
(** Committed strictly before. *)

val to_int : t -> int
(** The commit's sequence number: {!zero} is 0, each {!next} adds 1. *)

val of_int : int -> t
(** Inverse of {!to_int}, for decoding cookies, journals and
    modifyTimestamp values. *)

val to_string : t -> string
(** Decimal form, as written into modifyTimestamp and cookies:
    [string_of_int] of {!to_int}, byte for byte. *)

val decimal_width : int -> int
(** [String.length (string_of_int n)], computed without building it. *)

val write_decimal : Bytes.t -> stop:int -> int -> unit
(** [write_decimal b ~stop n] writes [string_of_int n] into [b] so that
    it ends just before [stop]; the caller sized [b] with
    {!decimal_width}. *)
