(** Wire-size model.

    The paper reports update traffic in entries; for the byte-level
    ablations we also model PDU sizes roughly the way BER-encoded LDAP
    messages grow: a fixed per-message envelope plus type/length bytes
    around every element.  Absolute numbers are not calibrated to any
    particular server — only relative comparisons are meaningful. *)

val message_overhead : int
(** Per-PDU envelope bytes (message id, operation tag, controls). *)

val dn_size : Dn.t -> int
(** The DN's string form as one element; built without rendering the
    string ({!Dn.string_length}). *)

val entry_size : Entry.t -> int
(** Full entry PDU: DN plus every attribute name and value, summed
    over {!Entry.fold_attributes} without building the attribute list,
    once per entry record ({!Entry.encoded_size}): later calls on the
    same record read the cached figure. *)

val search_request_size : Query.t -> int
(** Search request PDU: base DN plus the filter's string form, whose
    length is counted without printing it ({!Filter.printed_length}). *)

val search_reply_size : entries:Entry.t list -> references:string list list -> int
(** A search's reply: its entry and referral PDUs plus the final
    result message's envelope. *)
