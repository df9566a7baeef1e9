(** The little JSON the benchmark reads and writes: its result lines,
    run ledgers and [BENCHMARK.json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

val to_string : t -> string
(** Compact, one line.  Numbers keep every digit needed to read the
    same float back. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing field or a non-object. *)

val number : float -> string
(** The number syntax {!to_string} uses. *)
