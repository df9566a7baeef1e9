(** Ascending vectors of slot ids: the postings of {!Content_store},
    the child links of {!Backend} and the candidate sets searches build
    from them.  Slot ids are dense and a new entry gets the largest, so
    an add nearly always appends.  A removal marks the id dead in place
    and compacts once half the vector is dead; a revived slot keeps its
    id, so its re-add may land mid-vector or un-mark a dead id. *)

type t

val empty : t
(** The shared empty vector; {!add} never mutates it. *)

val add : t -> int -> t
(** Adds an id (no-op when live) and returns the vector: the one given,
    or a fresh one in place of {!empty}. *)

val remove : t -> int -> unit
(** Marks a live id dead, compacting once half the vector is dead and
    shrinking an array four times larger than what it then holds. *)

val card : t -> int
(** Live ids held. *)

val mem : t -> int -> bool
(** Whether the id is live in the vector: a binary search, so a dead
    id, held as its complement, is not a member. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the live ids in ascending order.  [f] must not mutate
    the vector. *)

val union : t list -> t
(** The live ids of every vector, ascending and distinct: a k-way merge.
    A one-vector list returns that vector itself. *)

val words : t -> int
(** Heap words held: the record and the array's capacity, dead ids
    included. *)
