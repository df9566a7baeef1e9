(** A directory server's search handler: a backend plus
    distributed-directory glue (default referral to a superior server,
    section 2.3). *)

type response =
  | Entries of Backend.search_result
      (** Matching entries plus continuation references. *)
  | Referral of string list
      (** Retry elsewhere: either the default (superior) referral when
          no local context holds the base, or the URLs of a referral
          object found during name resolution. *)
  | Failure of string
      (** Terminal error (e.g. noSuchObject with no superior). *)

val handler : ?default_referral:string -> Backend.t -> Query.t -> response
(** [handler ?default_referral backend] serves searches over [backend];
    a search whose base no local context holds is referred to
    [default_referral] (the superior server), or fails without one.
    Registered under a host name with {!Network.add_handler}. *)
