(** Merkle anti-entropy exchange: the request/reply protocol walked
    over a {!Tree} and the consumer-side reconciliation driver.

    The exchange is a four-message walk, cheapest tier first: compare
    roots, then branch hashes, then the segment hashes of differing
    branches, then fetch the entries of differing segments.  Only the
    final fetch ships entries, so the wire cost scales with the diff
    while every earlier message costs a handful of hashes.  Requests
    carry the consumer's tree shape, making the consumer authoritative
    over segmentation; the serving side rebuilds its tree lazily per
    request from whatever content function it was given — a root
    master evaluates the replica's filter over its backend, an
    intermediate node reads its own replica content. *)

open Ldap

(** One walk step.  Every shape-dependent request embeds the
    consumer's {!Tree.config}. *)
type request =
  | Root  (** Compare root hashes. *)
  | Branches of Tree.config  (** Fetch all branch-tier hashes. *)
  | Segments of Tree.config * int list
      (** Fetch the segment hashes of the listed branches. *)
  | Fetch of Tree.config * int list
      (** Ship the entries of the listed segments, plus a resume
          cookie minted at serve time. *)

type reply =
  | Root_hash of int64
  | Branch_hashes of (int * int64) list
  | Segment_hashes of (int * int64) list
  | Segment_entries of { entries : Entry.t list; cookie : string option }

val request_bytes : request -> int
(** Modelled wire cost of a request (message framing + indices). *)

val reply_bytes : reply -> int
(** Modelled wire cost of a reply (framing + hashes, or + entries). *)

val serve :
  content:(unit -> Entry.t Seq.t) ->
  cookie:(unit -> string option) ->
  request ->
  reply
(** Answers one walk step from [content], re-read lazily per request
    as a streaming sequence — hashing never materializes a list copy
    of the serving side's content.
    [cookie] is consulted only on [Fetch]: it should mint (or reuse) a
    ReSync session pinned at the serving side's current CSN, so the
    consumer that installs the shipped entries can resume incremental
    polling afterwards.  The cookie is minted before the entries are
    read, so installing both can never leave the cookie ahead of the
    content it arrived with. *)

(** What one reconciliation did, for reports and byte accounting. *)
type report = {
  rounds : int;  (** Walks performed, including the verifying one. *)
  depth : int;  (** Tree tiers walked ({!Tree.depth}). *)
  segments_total : int;  (** Segments in the configured shape. *)
  segments_compared : int;  (** Segment hashes received and compared. *)
  segments_shipped : int;  (** Segments whose entries were fetched. *)
  entries_shipped : int;  (** Entries received across all fetches. *)
  bytes_sent : int;  (** Modelled request bytes. *)
  bytes_received : int;  (** Modelled reply bytes. *)
  converged : bool;
      (** The final root comparison matched.  [false] means the server
          drifted faster than 4 walks could chase — the
          caller should fall back to a cold resynchronization. *)
}

val reconcile :
  ?config:Tree.config ->
  local:(unit -> Entry.t Seq.t) ->
  apply:
    (upserts:Entry.t list -> deletes:Dn.t list -> cookie:string option -> unit) ->
  rpc:(request -> (reply, string) result) ->
  unit ->
  (report, string) result
(** Drives the walk against a server reached through [rpc] until the
    roots match or 4 walks are spent.  Each
    round rebuilds the local tree from [local ()], fetches the entries
    of differing segments and hands them to [apply] together with the
    DNs to delete (local entries in shipped segments the server did
    not return) and the server's resume cookie; the following round's
    root comparison verifies the application converged — closing the
    race where updates land upstream between segment comparison and
    fetch.  Errors from [rpc] (transport loss, server rejection)
    abort the reconciliation. *)
