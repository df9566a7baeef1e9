(** The one JSON writer of the evaluation harness.

    Sweeps describe their results as a {!t} tree; this module alone
    decides escaping, number formatting and layout.  A container whose
    members are all scalars prints on one line; any other container
    prints one member per line, indented two spaces per level.  Floats
    carry the number of digits they print with, so a result written
    twice renders the same literal both times. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float  (** Digits after the decimal point, value. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Members in print order. *)

val float : int -> float -> t
(** [float digits v] is [Float (digits, v)]. *)

val list : ('a -> t) -> 'a list -> t
(** [list f xs] is [List (List.map f xs)]. *)

val to_string : t -> string
(** The laid-out document, without a trailing newline.  In strings and
    member names, double quote and backslash are backslash-escaped,
    newline becomes backslash-n and every other control character a
    backslash-u00XX escape. *)

val write : string -> t -> unit
(** [write path v] replaces the file at [path] with [to_string v] and
    a newline. *)
