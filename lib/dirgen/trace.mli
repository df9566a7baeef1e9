(** Workload traces: a line-oriented text format for query workloads.

    The paper evaluated on real two-day traces; this module lets users
    capture generated workloads or bring their own.  One query per
    line, tab-separated:

    {v kind <TAB> scope <TAB> base DN <TAB> filter <TAB> scoped base v}

    [#]-prefixed lines are comments.  The scoped base is the subtree
    the query would be scoped to for the subtree-replica baseline; use
    the base DN again when there is no better choice. *)

val save : out_channel -> Workload.item array -> unit
(** Writes the trace text: a header comment, then one line per item. *)

val load : in_channel -> (Workload.item array, string) result
(** Reads the channel to its end and parses the trace; [Error] names
    the first malformed line.  The kind column is case-insensitive:
    [serialnumber] (or [serial]), [mail], [department] (or [dept]),
    [location]. *)
