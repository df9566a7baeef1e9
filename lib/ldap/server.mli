(** A named directory server: a backend plus distributed-directory
    glue (default referral to a superior server, section 2.3). *)

type t

val create : ?default_referral:string -> name:string -> Backend.t -> t
(** [create ?default_referral ~name backend] serves [backend] as the
    host [name]; a search whose base no local context holds is
    referred to [default_referral] (the superior server), or fails
    without one. *)

val name : t -> string
(** The host name the server was created under. *)

type response =
  | Entries of Backend.search_result
      (** Matching entries plus continuation references. *)
  | Referral of string list
      (** Retry elsewhere: either the default (superior) referral when
          no local context holds the base, or the URLs of a referral
          object found during name resolution. *)
  | Failure of string
      (** Terminal error (e.g. noSuchObject with no superior). *)

val handle_search : t -> Query.t -> response
