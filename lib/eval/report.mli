(** Aligned ASCII tables for experiment output.

    Every figure/table reproduction prints one of these so
    [bench/main.exe] output can be compared side by side with the
    paper. *)

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
