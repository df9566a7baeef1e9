(** Query workload generator matching Table 1.

    Four query types with the paper's mix (serialNumber 58%, mail 24%,
    department 16%, location 2%) and three forms of locality:

    - {e spatial/semantic}: person lookups are biased toward the
      replica's geography ([geo_bias]) and, within a country, follow a
      Zipf distribution over serial-number {e blocks} — the regions
      the generalized prefix filters describe;
    - {e temporal}: with probability [repeat_p] a query repeats one of
      the last [repeat_window] queries, which is what the user-query
      cache window exploits (section 7.4);
    - department and location accesses are Zipf-skewed (not all
      departments of a division are accessed uniformly —
      section 7.2(b)).

    Every item carries both the root-based query that minimally
    directory-enabled applications issue (base = directory root,
    section 3.1.1) and a scoped variant (base = the country/division/
    location subtree), which is the generous form subtree replicas are
    evaluated against. *)

open Ldap

type kind = Serial | Mail | Dept | Location

type item = { kind : kind; query : Query.t; scoped : Query.t }

type config = {
  seed : int;
  length : int;
  serial_pct : float;
  mail_pct : float;
  dept_pct : float;
  location_pct : float;
  geo_bias : float;  (** P(person access targets the geography). *)
  block_digits : int;  (** Trailing serial digits that vary in a block:
                           2 -> blocks of 100 consecutive serials. *)
  block_zipf_s : float;
  dept_zipf_s : float;
  repeat_p : float;
  repeat_window : int;
  dept_drift_every : int;
      (** Queries between department-popularity drifts (0 disables):
          hot departments periodically trade places with cold ones, so
          dynamic filter selection must keep adapting. *)
}

val default_config : config
(** Table 1 mix, geo_bias 0.75, blocks of 10 serials, block zipf 0.9,
    repeat 0.18 over a window of 100, length 20000, seed 7. *)

val generate : Enterprise.t -> config -> item array

val mix_of : item array -> (kind * float) list
(** Observed distribution (for reproducing Table 1). *)

val kind_name : kind -> string
