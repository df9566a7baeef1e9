(** Fault-injectable storage media under the durable store.

    A medium is a namespace of flat files supporting append,
    whole-file atomic replace, sync, truncate and — the point of the
    exercise — {!crash}: the transition a process death imposes on the
    bytes it wrote.  Media live in memory: the simulator, the tests
    and [ldapctl store] all run on them.

    The fault model mirrors {!Ldap.Network.Faults}: decisions are
    deterministic, coming from an explicit script or a caller-supplied
    roll function, never from global randomness.  Three injectable
    behaviours cover the classic storage failure shapes: on crash,
    unsynced appends are lost (fsync loss) and the first lost append
    may additionally leave a torn prefix on the tail (torn write);
    independently, reads may return a short prefix (short read). *)

(** Deterministic fault schedules for storage media. *)
module Faults : sig
  type crash_outcome =
    | Keep_all  (** Everything written survives, synced or not. *)
    | Lose_unsynced  (** Bytes past the last {!sync} are gone. *)
    | Torn_tail
        (** Unsynced bytes are gone {e except} a strict prefix of the
            first unsynced append — a torn record on the tail. *)

  type t

  val create :
    ?torn_tail:float ->
    ?short_read:float ->
    ?roll:(unit -> float) ->
    unit ->
    t
  (** Probabilistic schedule: each crash draws one number from [roll]
      and maps it to an outcome ([Torn_tail] with probability
      [torn_tail], else [Lose_unsynced]); each read independently
      returns a prefix with probability [short_read], which must be
      below 1.  Without [roll] only scripted outcomes fire. *)

  val script : t -> crash_outcome list -> unit
  (** Appends forced crash outcomes, consumed one per {!crash} before
      any probabilistic roll — the way tests stage exact failures. *)
end

type t

val memory : ?faults:Faults.t -> unit -> t
(** A purely in-memory medium. *)

val append : t -> name:string -> string -> unit
(** Appends bytes to a file, creating it when missing.  The bytes are
    {e not} durable until {!sync}. *)

val append_sub : t -> name:string -> Bytes.t -> pos:int -> len:int -> unit
(** Appends a region of a byte buffer without copying it into an
    intermediate string first (one append as far as crash semantics
    are concerned): the region is blitted directly. *)

val sync : t -> name:string -> unit
(** Makes every appended byte of the file durable (fsync). *)

val write_atomic_sub : t -> name:string -> Bytes.t -> pos:int -> len:int -> unit
(** Replaces the whole file with a byte-buffer region, all-or-nothing
    and durably (the write-temp-then-rename idiom); a later {!crash}
    never sees a partial image of it.  The region is blitted straight
    into the file without an intermediate string — how a snapshot
    image framed in a reused buffer is installed with one copy. *)

val read : t -> name:string -> string option
(** Whole-file contents, or [None] when the file does not exist.
    Subject to the short-read fault. *)

val size : t -> name:string -> int
(** Current length in bytes; 0 when the file does not exist. *)

val read_whole : t -> name:string -> string option
(** {!read}, repeated while it returns fewer than {!size} bytes — how
    recovery reads, as a short read would otherwise look like a torn
    tail and cut synced records off the file. *)

val truncate : t -> name:string -> int -> unit
(** Durably cuts the file to the first [n] bytes — how recovery
    discards a torn tail. *)

val remove : t -> name:string -> unit
(** Deletes the file, if present. *)

val crash : t -> unit
(** Simulates a process crash across the whole medium: each file
    keeps its synced prefix and loses the rest, per the fault
    schedule (one {!Faults.next_crash} draw per file with unsynced
    bytes). *)
