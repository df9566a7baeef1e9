(** Hash tree over replica content, keyed by canonical DN.

    The tree is flat-array Merkle in the tictac-AAE shape: every entry
    hashes to 64 bits over a canonical rendering (canonical DN, then
    attributes sorted by name with sorted values), lands in the segment
    its DN hashes to, and each segment's hash is the XOR of its
    members' hashes.  Branches XOR runs of [branch_factor] segments
    and the root XORs everything — so the root is independent of the
    segment count, any two trees over identical content agree at the
    root, and a single-entry mutation flips exactly one
    segment-branch-root path.

    Trees are cheap to build ({!of_seq} is one pass) and are meant
    to be computed lazily, per exchange, on whichever side serves. *)

open Ldap

(** Tree shape: [segments] leaf buckets grouped into branches of
    [branch_factor] segments each. *)
type config = { segments : int; branch_factor : int }

val default_config : config
(** 256 segments, 16 per branch: 16 branch hashes at the middle tier. *)

val depth : config -> int
(** Tiers of the exchange walk (root, branches, segments) — constant 3
    for this flat-array shape. *)

val segment_of_dn : config -> Dn.t -> int
(** The segment an entry with this DN occupies.  Keyed by the DN alone
    so attribute mutations never move an entry between segments. *)

type t

val of_seq : ?config:config -> Entry.t Seq.t -> t
(** Builds the tree over the given content in one streaming pass
    (default {!default_config}) — no list copy of the content is ever
    materialized, so building over a 500k-entry store costs the
    segment array plus the iteration. *)

val root : t -> int64
(** Root hash: XOR of every entry hash, independent of the shape. *)

val branches : t -> (int * int64) list
(** All branch-tier hashes, in index order. *)

val segment : t -> int -> int64
(** One segment hash.
    @raise Invalid_argument when the index is out of range. *)

val segments_of_branch : config -> int -> int list
(** The segment indices a branch covers, in order.
    @raise Invalid_argument when the branch index is out of range. *)

val diff_branches : t -> (int * int64) list -> int list
(** Branch indices whose remote hash differs from this tree's. *)

val diff_segments : t -> (int * int64) list -> int list
(** Segment indices whose remote hash differs from this tree's. *)
