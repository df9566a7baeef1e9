(** Content sets of a search request (section 5.1).

    [CS(t)] is the set of entries satisfying a search request [S] at
    instant [t].  Given pre/post images of a committed update, an entry
    is classified as moving into the content (contributing to
    [E01]), out of it ([E10]), changing within it ([E11]) or staying
    outside.

    Production code evaluates membership one way, with
    {!Ldap.Query.matches} on the session's query: routed updates
    ({!classify_m}) and the master's Changelog and Tombstone replay
    alike.  {!classify} evaluates the same definition with the
    interpreted filter ({!Ldap.Filter.matches}); it is kept as the
    reference implementation that the tests check {!classify_m}
    against. *)

open Ldap

val changed_since : Csn.t -> Entry.t -> bool
(** Whether the entry's modifyTimestamp (the CSN that last wrote it)
    is newer than [since] — the eq. (3) test for "changed since the
    cookie".  An entry without one usable timestamp counts as
    changed. *)

val current : Backend.t -> Query.t -> Entry.t list
(** [CS(now)]: the content evaluated against the backend, with the
    query's attribute selection applied. *)

val current_dns : Backend.t -> Query.t -> Dn.Set.t

type transition =
  | Stays_out
  | Moves_in of Entry.t  (** E01: send [add]. *)
  | Moves_out of Dn.t  (** E10: send [delete] (of the old DN). *)
  | Changes_within of Entry.t  (** E11: send [modify]. *)
  | Renames_within of { old_dn : Dn.t; entry : Entry.t }
      (** A modify DN that keeps the entry in content: the paper
          mandates [delete] of the old DN followed by [add] of the
          new one (Figure 3, E3/E5). *)

val classify :
  Query.t -> before:Entry.t option -> after:Entry.t option -> transition
(** Interpreted classification: the oracle for {!classify_m}, used by
    tests only. *)

val classify_m :
  Query.t -> before:Entry.t option -> after:Entry.t option -> transition
(** Same classification driven by {!Ldap.Query.matches}. *)

val actions_of_transition : transition -> Action.t list
(** The PDUs a session must emit for the transition, in order. *)
