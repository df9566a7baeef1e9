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

val eval_over_store : Query.t -> Content_store.t -> Entry.t list
(** Answers a query from the content store of a containing stored
    query ({!Content_store.search}): the entries in scope that match
    its filter, with its attribute selection applied, in slot order.
    Candidates come from the store's postings, built the first time a
    query needs them, so a replica answers like an indexed backend. *)

val eval_over_entries : Schema.t -> Query.t -> Entry.t Seq.t -> Entry.t list
(** The same evaluation as a scan over a stream of entries: scope
    check, filter match and attribute selection, with the filter
    compiled once for the pass.  For entries that are not in a content
    store (the query cache's answer lists), for a node session's whole
    content (usually the stored query itself, which no posting would
    narrow), and as the oracle {!eval_over_store} must equal:
    convergence checks and tests hand it a store's
    {!Content_store.to_seq}.  The schema argument is the one schema
    ({!Schema.default}) and goes unused: the end-to-end benchmark still
    passes it. *)

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
