(** DN-keyed content store with interned ids, a change spine and
    attribute postings: the one search engine.

    The shared shape for every layer that materializes a set of
    entries — the backend's entries, consumer replica content, and
    the cursors topology nodes serve snapshot-diffs from.  A store
    maps canonical DNs to entries through dense interned slot ids and
    records every mutation on a bounded {e change spine}: a ring of
    (revision, slot id) events in commit order.  A reader holding the
    revision it last consumed can enumerate exactly the slots changed
    since — O(diff), not O(directory) — and is told to rescan when the
    spine was trimmed past its position, never served a silent gap.

    A backend's store is also its update log: each committed
    {!Update.record} rides on the last event its commit wrote (a
    modifyDN writes two).  Consumer stores carry none.  Trimming the
    spine, explicitly or past its bound of 2 * 16,384 events (the
    oldest half goes), releases the
    records it drops and raises the log's CSN floor to the newest of
    them; the floor never goes down.

    Searches read candidates off {e postings}: per attribute, a hash
    table from each canonical value (equal Integer spellings share a
    key) to the ascending vector of slot ids holding it, with its live
    count, so a conjunction is priced, only the cheapest conjunct's
    candidates are walked, and each is kept only when every other
    equality conjunct's posting holds it.  A prefix walk reads the postings grouped by
    their keys' first bytes, grouped at the first walk of that width.
    A backend declares its postings when it creates its store; every
    other store — a consumer's replica content — builds an attribute's
    postings the first time a search names it in an equality or an
    initial-only substring.

    Writes are keyed by slot id: {!set} and {!clear} take the id a
    caller resolved once ({!id_of}, or {!intern} for a new DN), and
    {!upsert} and {!remove} are the same writes found by DN.  Each
    keeps every posting current by walking the old and new entries'
    slot arrays once: a slot the two share physically costs one
    comparison, and only attributes with postings move keys. *)

type t

val create : ?indexed:Ldap_compile.Attr_id.t list -> unit -> t
(** Fresh empty store.  [indexed] declares the attributes the store
    keeps postings for, and no others; without it the store builds
    postings on demand. *)

val intern : t -> Dn.t -> int
(** The slot id of [dn]: the one {!id_of} finds, or a fresh one,
    holding no entry yet.  The largest id so far, so a writer that
    interns a DN only once its parent is stored keeps ascending ids
    parent-first. *)

val set : t -> int -> Entry.t -> unit
(** [set t id e] installs (or replaces) [e] at slot [id], which must
    be the slot interned for [e]'s DN, moves its posting keys and
    appends a spine event.  The id-keyed write: a caller that holds
    the id looks no DN up.  A replacement walks the old and new slot
    arrays once and moves only the values that changed: an attribute
    whose slot the new entry shares physically with the old one costs
    one comparison, and one without postings an array read.
    @raise Invalid_argument for an id never interned. *)

val clear : t -> int -> unit
(** Removes the entry at slot [id] and its posting keys, appending a
    spine event; no-op (and no event) when the slot holds none.  The
    slot id survives as a tombstone so later events can still name
    the DN. *)

val upsert : t -> Entry.t -> unit
(** {!set} at the slot {!intern} gives the entry's DN. *)

val remove : t -> Dn.t -> unit
(** {!clear} at [dn]'s slot; no-op when the DN was never stored. *)

val find : t -> Dn.t -> Entry.t option
(** O(1) lookup by DN. *)

val id_of : t -> Dn.t -> int option
(** The slot id interned for [dn], live or tombstoned; [None] when the
    DN was never stored.  Ids are dense, assigned in first-upsert
    order and never reused. *)

val dn_of : t -> int -> Dn.t
(** The DN slot [id] was interned for, live or tombstoned.  Raises
    [Invalid_argument] for an id not yet allocated. *)

val get : t -> int -> Entry.t option
(** O(1) access by slot id: the live entry, or [None] for a tombstone
    or an id not yet allocated.  Raises [Invalid_argument] for an id
    beyond the slot array. *)

val size : t -> int
(** Live entries held. *)

val interned : t -> int
(** Slot ids allocated — live entries plus tombstoned DNs. *)

val fold : t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Folds over live entries in slot order. *)

val to_seq : t -> Entry.t Seq.t
(** Live entries as a sequence in slot order, built lazily over the
    slot array — the ordered iterator replica evaluation and
    anti-entropy tree construction stream from.  The sequence reads
    the live array: do not mutate the store while consuming it. *)

val to_list : t -> Entry.t list

val rev : t -> int
(** Current revision: total mutation events recorded.  A cursor holds
    the revision it consumed and passes it to {!changes_since}. *)

val spine_length : t -> int
(** Buffered spine events.  The spine reaches back to revision
    [rev - spine_length]: the floor, before which trimmed events are
    gone. *)

val changes_since : t -> int -> int list option
(** [changes_since t r] is [Some ids] — the distinct slot ids mutated
    after revision [r], oldest-first by first occurrence — when the
    spine still reaches back to [r]; [None] when [r] predates the floor
    and the caller must rescan.  [Some []] when nothing changed.  A
    reader takes each slot's entry with {!get} and its DN with
    {!dn_of}, so no DN is hashed back to its id. *)

val trim_spine : t -> keep:int -> unit
(** Drops all but the newest [keep] spine events, advancing the floor
    and releasing the records they carried. *)

(** {1 Search} *)

val search : t -> Query.t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Folds [f] over the live entries in the query's scope that match
    its filter, unprojected and in slot order: exactly the entries a
    scan of {!to_seq} with {!Query.matches} keeps, in the same order.
    Candidates come from the postings that apply (see
    {!fold_candidates}); with none the store is scanned. *)

val fold_candidates :
  t -> Filter.t -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a option
(** [Some] fold of [f] over a superset of the entries matching the
    filter, read off postings and in slot order; [None] when no
    posting applies.  An equality or an initial-segment substring
    (except under Integer syntax) reads its attribute's postings; a
    conjunction the cheapest conjunct's, an equality priced first,
    skipping each id that the posting of another equality conjunct
    lacks (one whose attribute has no postings skips none); a
    disjunction the union of its branches', when every branch has
    some.  Nothing else does.  The caller still runs the filter on
    each candidate. *)

val posting_count : t -> Filter.t -> int option
(** The number of live entries a lone equality, or a substring with
    only an initial segment, matches across the whole store, read off
    postings the store already holds without touching an entry;
    [None] for any other filter, an Integer-syntax attribute or an
    attribute without postings. *)

(** {1 Update log} *)

val attach : t -> Update.record -> unit
(** Hangs a committed record on the newest spine event, which the
    commit has just written.
    @raise Invalid_argument when that event already carries one. *)

val restore_record : t -> Dn.t -> Update.record -> unit
(** Appends a spine event on [dn]'s slot carrying the record, leaving
    the content as it is — how a restored log image rejoins the
    spine. *)

val log_since : t -> Csn.t -> Update.record list
(** The retained records with CSN strictly greater than the argument,
    oldest first; when records past it were trimmed, only the
    retained suffix ({!log_floor} tells). *)

val log_floor : t -> Csn.t
(** Records at or below this CSN may have been trimmed; records above
    it are all retained. *)

val trim_log : t -> before:Csn.t -> unit
(** Drops the spine through the last event carrying a record with CSN
    below [before], and raises {!log_floor} to [before - 1]. *)

val approx_bytes : t -> int
(** Approximate heap footprint of everything reachable from the store
    (slots, spine, postings and the entries themselves), for
    memory-residency reports.  Walks the object graph except the
    postings, which are counted from their tables' buckets and rows
    and their vectors' capacity — O(size), diagnostic use only. *)
