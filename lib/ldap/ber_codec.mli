(** BER/DER wire codec for the LDAP protocol subset this system
    exchanges (RFC 2251 section 4 framing, definite-length DER).

    Covered protocol operations: SearchRequest, SearchResultEntry,
    SearchResultReference and SearchResultDone, plus controls — among
    them the manageDsaIT control and the paper's resync control
    [(mode, cookie)] carried as an extension control (section 5.2).

    The {!Ber} module remains the lightweight size {e model} used by
    the experiments; this codec provides actual wire images, used to
    validate that model and by the round-trip property tests. *)

type result_done = {
  code : int;  (** 0 success, 10 referral, 32 noSuchObject, ... *)
  matched : Dn.t;
  diagnostic : string;
  referral : string list;  (** LDAP URLs when [code = 10]. *)
}

type operation =
  | Search_request of Query.t
  | Search_result_entry of Entry.t
  | Search_result_reference of string list
  | Search_result_done of result_done

type control = {
  control_type : string;  (** OID. *)
  criticality : bool;
  control_value : string option;  (** Raw BER value. *)
}

type message = { id : int; op : operation; controls : control list }

val manage_dsa_it_oid : string
(** OID of the manageDsaIT control (RFC 3296): referral objects are
    returned as ordinary entries instead of being followed. *)

val resync_control : mode:string -> cookie:string option -> control
(** Encodes the paper's [(mode, cookie)] resync control value. *)

val decode_resync_control : control -> (string * string option, string) result

val encode : message -> string
(** DER encoding of the whole LDAPMessage.  Internally emits into one
    reused buffer ({!encode_to}) and copies out once. *)

val encode_to : Ldap_compile.Wbuf.t -> message -> unit
(** Zero-copy encode: prepend the message's DER image into a caller
    buffer.  Reusing one buffer across messages makes encoding
    allocation-free apart from buffer growth. *)

val decode : string -> (message, string) result
(** Decodes one LDAPMessage occupying the entire input. *)

val encoded_size : message -> int

val search_request : ?id:int -> Query.t -> message
(** Convenience: a SearchRequest message with the manageDsaIT control
    attached when the query asks for it. *)

val entry_message : ?id:int -> Entry.t -> message

exception Decode_error of string
(** Raised by the {!Der} cursor readers on malformed input; {!decode}
    catches it internally, callers of [Der] handle it themselves. *)

(** The raw DER primitives behind the codec, exposed for other
    serialization clients — notably the durable store, whose WAL
    records and snapshots reuse this codec for entries, queries and
    framing rather than inventing a second wire format. *)
module Der : sig
  type cursor
  (** Read position inside one DER value. *)

  val entry : Entry.t -> string
  (** A SearchResultEntry TLV (same image as {!entry_message}'s op),
      as {!W.entry} writes it, encoded at most once per entry record
      and kept on it ({!Entry.der}): the image a durable consumer's
      journal and checkpoint share. *)

  (** The DER writer, emitting into an {!Ldap_compile.Wbuf} backwards
      with no intermediate strings.  Because the buffer is written
      back-to-front, composite values must emit their children in
      {e reverse} field order between {!W.mark} and {!W.close_seq}.
      The [read_*] cursors below read what it writes. *)
  module W : sig
    type w = Ldap_compile.Wbuf.t
    (** The target buffer. *)

    val mark : w -> int
    (** Open a composite value; pass the result to {!close_seq}. *)

    val close_seq : w -> int -> unit
    (** Close a SEQUENCE whose children were emitted (in reverse
        order) since the given {!mark}. *)

    val close_octets : w -> int -> unit
    (** Close an OCTET STRING over the raw bytes emitted since the
        given {!mark} — for wrapping an already-emitted image. *)

    val integer : w -> int -> unit
    (** DER INTEGER (non-negative, minimal two's-complement). *)

    val boolean : w -> bool -> unit
    (** DER BOOLEAN. *)

    val enum : w -> int -> unit
    (** DER ENUMERATED, single byte [0..255]. *)

    val octets : w -> string -> unit
    (** DER OCTET STRING. *)

    val option : w -> ('a -> unit) -> 'a option -> unit
    (** An optional value as a SEQUENCE of zero or one element; the
        callback must emit into [w]. *)

    val entry : w -> Entry.t -> unit
    (** A SearchResultEntry TLV: the image the entry keeps
        ({!Entry.cached_der}) copied, else a fresh encode, which is
        not kept — so a whole-directory checkpoint or a master's
        journal never grows the entries it writes. *)

    val keep_entry : w -> Entry.t -> unit
    (** {!entry}'s bytes, encoded at most once per entry record and
        kept on it ({!Der.entry}): a consumer's journal writes through
        this, so its next checkpoint copies the image. *)

    val query : w -> Query.t -> unit
    (** A SearchRequest TLV.  The [manage_dsa_it] flag travels as a
        control at the message layer, so it is {e not} preserved. *)
  end

  val cursor : string -> cursor
  (** Cursor over a whole buffer. *)

  val at_end : cursor -> bool
  (** No bytes left under the cursor's limit. *)

  val read_integer : cursor -> int
  (** Reads an INTEGER; raises {!Decode_error} on anything else. *)

  val read_boolean : cursor -> bool
  (** Reads a BOOLEAN. *)

  val read_enum : cursor -> int
  (** Reads an ENUMERATED. *)

  val read_octets : cursor -> string
  (** Reads an OCTET STRING. *)

  val read_seq : cursor -> cursor
  (** Enters a SEQUENCE, returning a cursor over its contents. *)

  val read_option : (cursor -> 'a) -> cursor -> 'a option
  (** Inverse of {!W.option}. *)

  val read_entry : cursor -> Entry.t
  (** Inverse of {!W.entry}. *)

  val read_query : cursor -> Query.t
  (** Inverse of {!W.query}. *)
end
