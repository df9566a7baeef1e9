(** The benchmark's update generator.

    A copy of {!Ldap_dirgen.Update_stream}'s operation mix and
    live-employee model that produces operations instead of applying
    them, so the timed call is exactly [Backend.apply] or
    [Router.apply].  Every operation is valid when the operations are
    applied in order to a directory that started as the enterprise:
    deletes, renames and modifies name live entries, hires take fresh
    serial numbers, and renames take globally fresh names. *)

type t

val create : Ldap_dirgen.Enterprise.t -> seed:int -> t

val next : t -> Ldap.Update.op
