(** Before/after comparison of two run ledgers under the bounds of
    [BENCHMARK.json].

    A ledger is what [perf.exe run --json FILE] appends: one JSON
    object per workload run.  Rows are (workload, end-to-end metric)
    pairs; runs of the two ledgers are paired by workload and seed in
    file order. *)

type verdict =
  | Better
      (** The change wins at least 9 of 10 pairs and the medians differ
          by more than the parent's interquartile range. *)
  | Worse  (** The median worsened by more than the bound. *)
  | Within  (** No worsening beyond the bound. *)
  | Unresolved
      (** Run-to-run spread exceeds the bound, and the two sides'
          runs overlap. *)

val verdict_to_string : verdict -> string

val verdict :
  lower_is_better:bool -> bound:float -> float list -> float list -> verdict
(** [verdict ~lower_is_better ~bound parent change] with pairs formed
    by position.
    @raise Invalid_argument if either side is empty. *)

type bound = { metric : string; lower_is_better : bool; bound : float }

val bounds : Json.t -> (bound list, string) result
(** The [end_to_end] entries of a parsed [BENCHMARK.json]. *)

type run = { workload : string; seed : int; values : (string * float) list }

val read_ledger : string -> (run list, string) result
(** Reads a ledger file, one JSON object per non-empty line. *)

type row = {
  workload : string;
  metric : string;
  parent : float list;
  change : float list;
  wins : int;  (** Pairs where the change reads strictly better. *)
  pairs : int;
  result : verdict;
}

val rows : bound list -> run list -> run list -> row list
(** One row per workload and bounded metric present on both sides. *)

val print : bound list -> row list -> unit
(** A table of medians, quartiles, change and verdict per row. *)
