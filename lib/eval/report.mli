(** Aligned ASCII tables for experiment output.

    Every figure/table reproduction prints one of these, so
    [ldapctl experiment] output can be compared side by side with the
    paper; every [bench/main.exe] sweep prints its JSON rows as one
    ({!of_json}). *)

type table = {
  title : string;
  notes : string list;  (** Shape expectations, printed under the title. *)
  columns : string list;
  rows : string list list;
  appendix : string;  (** Free-form block printed after the rows, e.g.
                          an ASCII chart of the same series. *)
}

val make :
  title:string -> ?notes:string list -> ?appendix:string -> columns:string list ->
  rows:string list list -> unit -> table
(** A table; [notes] default to none and [appendix] to empty.  Rows
    may be shorter than [columns]. *)

val of_json : title:string -> ?notes:string list -> keys:string list -> Json.t list -> table
(** The table of a sweep's JSON rows: one column per key, headed by
    the key, one row per [Json.Obj].  A cell is the member's
    {!Json.compact} literal, so a number keeps the digits the file
    prints, except that a string prints without quotes.  Raises
    [Invalid_argument] on a row that is not an object or lacks a key. *)

val print : table -> unit
(** Prints {!to_string} and a blank line to stdout. *)

val to_string : table -> string
(** The title line, the notes indented three spaces, the header, a
    rule and the rows with every column padded to its widest cell,
    then the appendix after a blank line. *)

val fmt_float : float -> string
(** Three decimals. *)

val fmt_pct : float -> string
(** A ratio as a percentage with one decimal. *)
