(** Minimal ASCII line charts for the figure reproductions.

    Renders one or more series over a shared x-axis as a character
    grid, so the bench output shows the curve shapes (who is above
    whom, where curves cross or saturate) at a glance, next to the
    exact numbers in the tables. *)

val render :
  ?y_max:float ->
  x_labels:string list ->
  series:(string * float list) list ->
  unit ->
  string
(** [render ~x_labels ~series ()] draws each series with its own glyph
    over 12 rows.  [y_max] defaults to the largest
    value (at least a small epsilon).  Series shorter than the x-axis
    are drawn as far as they go. *)
