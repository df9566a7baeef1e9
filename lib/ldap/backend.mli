(** A directory server backend: naming contexts, indexes, search
    execution, update application and the committed-update log.

    This is the building block for both masters and replicas.  It owns
    one or more naming contexts (section 2.3), has its content store
    keep equality/prefix indexes on configured attributes, assigns a {!Csn.t} to every
    committed update, keeps its record (pre/post images) on the
    content store's change spine — the backend's one update log — and
    notifies subscribers, which is how the ReSync master maintains
    per-session history.

    Entries live in one {!Content_store}, which is also the search
    engine: the backend declares its indexed attributes to it and
    reads candidates off its postings ({!Content_store.fold_candidates}).
    The backend keeps what a tree needs: naming contexts, referral
    objects and child links keyed by the store's slot ids, for the
    scope walk when no posting applies.  Slot order — ascending slot
    id — puts every parent before its children: an id is assigned when
    a DN is first stored, which needs a live parent, and never
    reused. *)

type t

val create : ?indexed:string list -> Schema.t -> t
(** An empty backend.  [indexed] lists attributes to index (defaults
    to none; [objectclass] is always added): they are the postings its
    content store declares, and searches build no others. *)

val schema : t -> Schema.t

val add_context : t -> Entry.t -> (unit, string) result
(** Installs a new naming context whose suffix entry is given.  Fails
    when the suffix is inside, or encloses, an existing context. *)

val contexts : t -> Dn.t list
(** Suffixes of the naming contexts, deepest first. *)

val context_for : t -> Dn.t -> Dn.t option
(** Suffix of the most specific naming context whose namespace covers
    the DN. *)

val find : t -> Dn.t -> Entry.t option
(** O(1) lookup across all naming contexts: one hash probe. *)

val total_entries : t -> int
(** Entries held across all naming contexts. *)

val fold_entries : t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Folds over every entry in slot order, so parents come before their
    children. *)

val content_store : t -> Content_store.t
(** The {!Content_store} holding every entry of every naming context,
    updated on each commit and restore.  Its change spine is in CSN
    commit order and carries each committed record (the update log
    below); readers use it for O(diff) change enumeration and
    memory-residency reports. *)

(** {1 Search} *)

type search_error =
  | No_such_object of Dn.t
      (** Base outside every context, or missing within one. *)
  | Base_referral of { dn : Dn.t; urls : string list }
      (** Name resolution hit a referral object at or above the base:
          the client must continue there (Figure 2's first hop). *)

type search_result = {
  entries : Entry.t list;
      (** Matching entries with attribute selection applied. *)
  references : string list list;
      (** Continuation references: the [ref] URLs of each referral
          object found in the search scope (subordinate contexts). *)
}

val search : t -> Query.t -> (search_result, search_error) Stdlib.result
(** Evaluates the query against the covering naming context, using
    attribute indexes where the filter allows.  Entries come in slot
    order. *)

val compare_values : t -> Dn.t -> attr:string -> value:string -> (bool, string) result
(** The LDAP compare operation (section 2.2): does the entry carry the
    asserted value under the attribute's matching rule?  [Error] when
    the entry does not exist. *)

val count_matching : t -> Query.t -> int
(** Number of entries the query would return; 0 on search errors.
    Used by the filter-selection algorithm as its size estimate.  A
    lone equality or initial-only substring on an indexed, non-Integer
    attribute, searched over the whole of the backend's one naming
    context with no referral objects and manageDsaIT off, is counted
    from the postings without touching an entry; everything else
    counts the candidate walk {!search} makes. *)

(** {1 Updates} *)

val apply : t -> Update.op -> (Update.record, string) result
(** Validates and commits an update, advancing the CSN, maintaining
    indexes, attaching the record to the commit's last spine event and
    notifying subscribers.  A failed update changes nothing and logs
    nothing. *)

val csn : t -> Csn.t
(** CSN of the last committed update. *)

(** {1 Update log}

    The committed records the spine still holds.  Retention is the
    spine's: at most 2 * 16,384 events (see {!Content_store}), so the
    log reaches back roughly that many commits unless
    {!trim_log} cut it shorter. *)

val log_since : t -> Csn.t -> Update.record list
(** The retained records with CSN strictly greater than the argument,
    oldest first.  When records past that point were trimmed this is
    only the retained suffix: check {!log_complete_since} first and
    fall back to a degraded synchronization mode when it fails. *)

val log_complete_since : t -> Csn.t -> bool
(** Whether the log still holds every record with CSN strictly
    greater than the argument: [log_floor t <= csn]. *)

val trim_log : t -> before:Csn.t -> unit
(** Drops records with CSN < [before] (with the spine events up to
    the last of them) and raises {!log_floor} to [before - 1]; models
    bounded history. *)

val log_floor : t -> Csn.t
(** The log's trim floor, which never goes down: records at or below
    it may be gone, records above it are all retained. *)

val subscribe : t -> (Update.record -> unit) -> unit
(** Called synchronously, in commit order, after each commit. *)

(** {1 Recovery}

    Hooks for the durable store: rebuild a backend from a snapshot
    image plus a replayed WAL suffix.  None of these validate,
    re-stamp or notify subscribers — the images already carry their
    committed state. *)

val restore_entry : t -> Entry.t -> (unit, string) result
(** Inserts (or, for an already-present DN such as a context suffix,
    replaces) a snapshot entry image verbatim, maintaining indexes
    and referral bookkeeping.  Parents must be restored before
    children. *)

val restore_csn : t -> Csn.t -> unit
(** Sets the committed CSN to the snapshot's value. *)

val restore_log : t -> floor:Csn.t -> Update.record list -> unit
(** Restores the update log: raises its trim floor to [floor], then
    appends each retained record, oldest first, as a spine event on
    its target's slot (the post-image's DN, else the deleted one). *)

val replay_record : t -> Update.record -> (unit, string) result
(** Replays one WAL record past the snapshot: applies its recorded
    images, attaches it to the last spine event that wrote and
    advances the CSN to the record's — without re-notifying
    subscribers.  [Error] for a record with neither image. *)
