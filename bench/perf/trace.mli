(** In-memory span recorder for the traced benchmark run.

    Spans are recorded around the benchmark's own calls into public
    library functions — nothing inside the program is instrumented.
    Each span keeps its name, start, end, parent (through a span
    stack), the request id of the client operation that caused it, and
    the minor words allocated while it was open.  Records live in
    growable arrays sized in large steps and are written out only when
    the run ends.  A disabled recorder turns every call into a no-op,
    so the untraced run executes the same code path. *)

type name
(** A span name from the fixed {!span_names} table. *)

val span_names : string list
(** Every span name a run can record, in report order. *)

val name : string -> name
(** @raise Invalid_argument for a name outside {!span_names}. *)

type t

val create : enabled:bool -> t

val enter : t -> name -> unit
(** Opens a span as a child of the innermost open span. *)

val leave : t -> unit
(** Closes the innermost open span. *)

val leave_as : t -> name -> unit
(** Closes the innermost open span under another name — for spans
    classified by what happened inside them. *)

val within : t -> name -> (unit -> 'a) -> 'a
(** [within t n f] runs [f] inside a span named [n]; the span is closed
    when [f] returns or raises. *)

val set_request : t -> int -> unit
(** Request id stamped on spans opened from now on (0: none). *)

val top_level_ns : t -> int
(** Summed duration of closed spans that had no parent. *)

type summary = {
  calls : int;
  self_ns : int;  (** Duration minus the time covered by child spans. *)
  self_words : int;  (** Minor words allocated minus the children's. *)
  durations_ns : float array;  (** Inclusive durations, ascending. *)
}

val summary : t -> name -> summary

val reset : t -> unit
(** Drops every record and aggregate; open spans must be closed. *)

val tsv_header : string

val write_tsv : t -> out_channel -> workload:string -> unit
(** Writes one line per span, under {!tsv_header}: workload, index,
    parent index (-1 for none), request id, name, start (from the
    first span) and duration in ns, and minor words. *)
