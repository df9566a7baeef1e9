external now_ns : unit -> (int[@untagged])
  = "perf_now_ns_byte" "perf_now_ns"
[@@noalloc]
