(** DER payload codecs for the ReSync values the durable store
    journals — actions, replies and cookies — shared by the
    {!Consumer} and {!Master} persistence layers so both sides of the
    protocol write one wire format.

    Readers raise {!Ldap.Ber_codec.Decode_error} on malformed input;
    recovery paths wrap them via {!Ldap_store.Codec.decode}. *)

open Ldap

val read_action : Ber_codec.Der.cursor -> Action.t
(** Inverse of {!W.action}. *)

val read_actions : Ber_codec.Der.cursor -> Action.t list
(** Inverse of {!W.actions}. *)

val read_reply : Ber_codec.Der.cursor -> Protocol.reply
(** Inverse of {!W.reply}. *)

(** Encoders (see {!Ber_codec.Der.W}): images emitted backwards into
    a reused buffer for the hot journal paths.  The consumer's records
    ({!action}, {!reply}) keep each entry's image on the entry
    ({!Ber_codec.Der.W.keep_entry}), so its next checkpoint copies it
    instead of encoding again; the master's ({!actions}) only copy an
    image an entry already keeps. *)
module W : sig
  val action : Ldap_compile.Wbuf.t -> Action.t -> unit
  (** One update action, with the full entry image for Add/Modify:
      a consumer's persist push. *)

  val actions : Ldap_compile.Wbuf.t -> Action.t list -> unit
  (** A SEQUENCE of actions: a master's pending history. *)

  val reply : Ldap_compile.Wbuf.t -> Protocol.reply -> unit
  (** A whole reply — kind, actions and cookie — as {e one} value, the
      consumer's atomicity boundary: cookie and content replay from
      the same record or not at all. *)
end

val read_cookie_opt : Ber_codec.Der.cursor -> string option
(** Reads an optional cookie. *)
