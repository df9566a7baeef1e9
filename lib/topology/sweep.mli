(** Process memory readers for the benchmarks.

    The sweeps themselves live in the bench library [Ldap_sweeps]
    ([bench/sweeps]); these two readers stay here because the
    end-to-end benchmark reads [peak_rss_kb] from this module. *)

val current_rss_kb : unit -> int
(** VmRSS of this process from /proc/self/status (0 where absent).
    Reading it consumes no virtual time. *)

val peak_rss_kb : unit -> int
(** VmHWM — process peak RSS — same caveats as {!current_rss_kb}. *)
