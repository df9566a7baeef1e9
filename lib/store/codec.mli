(** DER payload codecs for the directory-level values the durable
    store records — entries, queries, CSNs and committed-update
    records — built on {!Ldap.Ber_codec.Der} so WAL records and wire
    PDUs share one encoding.

    Encoders return self-delimiting DER values that concatenate
    freely; readers consume exactly one value from a cursor and raise
    {!Ldap.Ber_codec.Decode_error} on malformed input.  {!decode}
    wraps a whole-payload read into a [result] for recovery paths
    that must never raise. *)

open Ldap

val decode : (Ber_codec.Der.cursor -> 'a) -> string -> ('a, string) result
(** Runs a reader over the whole payload, catching decode and DN
    parse errors. *)

val read_csn : Ber_codec.Der.cursor -> Csn.t
(** Inverse of {!csn}. *)

(** Writer twins (see {!Ber_codec.Der.W}): images emitted backwards
    into a reused buffer, so the hot journal path allocates no
    intermediate strings. *)
module W : sig
  val csn : Ldap_compile.Wbuf.t -> Csn.t -> unit
  (** Writer twin of {!csn}. *)

  val record : Ldap_compile.Wbuf.t -> Update.record -> unit
  (** One committed-update record: CSN, operation and both images. *)
end

val read_record : Ber_codec.Der.cursor -> Update.record
(** Inverse of {!W.record}. *)
