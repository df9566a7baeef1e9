(** Optional parameters, classified by who passes them. *)

val configure : ?prod:int -> ?listed:int -> ?unlisted:int -> unit -> int
(** Called from [bin] with [~prod:] and from [test] with [?listed:] and
    [~unlisted:]. *)
