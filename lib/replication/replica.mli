(** Common vocabulary for partial replicas.

    A replica either answers a query completely from local content or
    generates a referral to the master (the hit/miss distinction behind
    every hit-ratio figure in section 7). *)

open Ldap

type answer =
  | Answered of Entry.t list
      (** Fully answered locally — a {e hit}. *)
  | Referral
      (** The replica cannot guarantee a complete answer — a {e miss};
          the client must go to the master (or chase a referral). *)

val eval_over_entries : Schema.t -> Query.t -> Entry.t Seq.t -> Entry.t list
(** Evaluates a query locally over a stream of candidate entries:
    scope check, filter match and attribute selection, with the filter
    compiled once for the pass.  Used by replicas to answer a query
    from the content of a containing stored query; callers hand in the
    content store's iterator directly, so evaluation never copies the
    candidate set into an intermediate list. *)

val filter_attrs_available : available:Query.attrs -> Query.t -> bool
(** Whether the attributes the incoming query's filter mentions are all
    present in content stored with the [available] attribute
    selection.  A replica must not evaluate a filter over entries whose
    relevant attributes were projected away — that would silently turn
    a complete answer into an incomplete one. *)

val widen_attrs : Query.t -> Query.t
(** The query with its attribute selection extended by the attributes
    its own filter mentions, so locally stored content can always be
    re-evaluated (what the OpenLDAP proxy cache does when caching). *)
