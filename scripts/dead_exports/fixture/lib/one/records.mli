(** Record fields and variant constructors, classified by who reads or
    builds them. *)

type counters = {
  mutable unread : int;  (** Built in [bin], read by nothing. *)
  mutable bumped : int;  (** Read only by its own increment in [bin]. *)
  probed : int;  (** Read only from [test]. *)
  matched : int;  (** Read only through a pattern in [bin]. *)
  used : int;  (** Read from [bin]. *)
}

type snapshot = {
  kept : int;  (** Read only by a copy in [bin] that keeps it. *)
  replaced : int;  (** Replaced by that copy, then read from [bin]. *)
}

(** Compared with [=] in [bin], which reads both fields. *)
type pair = { left : int; right : int }

type mode =
  | Built  (** Built in [bin]. *)
  | Test_built  (** Built only from [test]. *)
  | Matched_only  (** Matched in [bin], built nowhere. *)
