(** ReSync protocol messages: the resync control and replies.

    The control attached to a search request is [(mode, cookie)]
    (section 5.2).  A null cookie starts an update session; a non-null
    cookie resumes one.  Poll replies carry a cookie to resume with;
    persist replies keep a notification channel open. *)

type mode =
  | Poll  (** One exchange; the reply carries a resume cookie. *)
  | Persist  (** Keep the connection; further changes are pushed. *)
  | Sync_end  (** Terminate the session identified by the cookie. *)

type request = { mode : mode; cookie : string option }

val cookie_of : id:int -> csn:Ldap.Csn.t -> string
(** The wire form of a resume cookie, [rs:<session id>:<csn>].  Every
    tier of a cascading topology — root master and intermediate nodes
    alike — issues cookies in this one format, so a cookie minted
    anywhere parses anywhere.  Session ids start at 1. *)

val parse_cookie : string -> (int * Ldap.Csn.t) option
(** Session id and CSN embedded in a cookie; [None] if malformed.  A
    well-formed cookie is exactly [rs:<digits>:<digits>] with both
    numbers plain ASCII decimal within [max_int]: signs, [0x]/[0o]/[0b]
    prefixes and [_] separators are rejected.  Allocates nothing but
    its result. *)

val reparent_cookie : string -> string option
(** Cookie translation for re-parenting: keeps the CSN (the globally
    meaningful progress marker, since all CSNs originate at the root)
    and replaces the dead server's session id with the reserved
    foreign-session id 0, which no server ever allocates.  The new
    upstream therefore sees an unknown session and answers with a
    degraded resynchronization from exactly the CSN the consumer has
    acknowledged.  [None] if the cookie is malformed. *)

val composite_cookie : (int * string) list -> string
(** The wire form of a {e composite} cookie, the resume handle a shard
    router hands out: one ordinary [rs:...] component per shard, keyed
    by shard id and sorted, as
    [rsm:<shard>@rs:<id>:<csn>|<shard>@rs:<id>:<csn>].  A shard without
    an established session has no component.  Like {!cookie_of}, the
    format is tier-independent: any router parses any router's
    composite. *)

val is_canonical_composite : string -> bool
(** Whether the string is a composite cookie spelled exactly as
    {!composite_cookie} spells its own components: shard ids strictly
    increasing and written without leading zeros.  A router that
    presents such a cookie back unchanged hands out the same bytes it
    would mint.  Allocates nothing. *)

val parse_composite_cookie : string -> (int * string) list option
(** Components of a composite cookie, or [None] if the string is not a
    well-formed composite ([rsm:] with zero or more components).  Shard
    ids follow {!parse_cookie}'s rule: plain ASCII decimal digits. *)

type reply_kind =
  | Initial_content
      (** Null cookie: the entire content was sent as [add]s. *)
  | Incremental
      (** Session history replay: the minimal update set. *)
  | Degraded
      (** History was incomplete; unchanged entries arrive as
          [retain] actions and the replica must prune everything it
          holds that was neither retained nor added (eq. (3)). *)

type reply = private {
  kind : reply_kind;
  actions : Action.t list;
  cookie : string option;  (** Present for poll replies. *)
  entries : int;  (** {!entries_cost}. *)
  bytes : int;  (** {!bytes_cost}. *)
  count : int;  (** {!actions_count}. *)
}
(** Built only by {!val-reply}, which sizes the actions once: every
    layer an exchange crosses — the serving node's counters, the
    network's byte accounting, the consumer's statistics — reads the
    sizes off the record instead of walking the actions again. *)

val reply : kind:reply_kind -> actions:Action.t list -> cookie:string option -> reply
(** A reply with its sizes computed in one walk over [actions]. *)

val entries_cost : reply -> int
(** Total traffic of the reply in entries (the paper's unit). *)

val bytes_cost : reply -> int
(** Modelled wire size of the actions alone (no envelope, no cookie). *)

val actions_count : reply -> int
(** Number of actions the reply carries. *)

val request_bytes : request -> int
(** Modelled wire size of a resync search request PDU: message
    envelope, mode and cookie control value. *)

val reply_bytes : reply -> int
(** Modelled wire size of a full reply PDU: envelope, every action and
    the resume cookie.  [bytes_cost] plus the envelope. *)

(** {1 Persist push channels}

    The master side of a persist session holds a {!push_channel} rather
    than a bare function: each send reports whether the notification
    was written, could not be written right now, or can never be
    written again — the three answers a TCP socket gives a writer.
    The status is what lets the master run a {e bounded} outbound queue
    per session (stall → buffer up to a limit; overflow or reset →
    retire the session) instead of blocking on, or buffering without
    bound for, its slowest consumer. *)

type push_status =
  | Push_ok  (** Accepted for delivery (possibly in flight). *)
  | Push_stalled
      (** The receiver is not draining (flow control): nothing was
          sent, and the caller must buffer or drop the action. *)
  | Push_gone
      (** The connection is dead: this and all later sends are lost,
          like a write after ECONNRESET. *)

type push_channel = {
  pc_send : Action.t -> push_status;  (** Delivers one notification. *)
  pc_close : unit -> unit;
      (** Server-side teardown: marks the connection dead so the
          consumer's next liveness check sees it and reconnects. *)
}

