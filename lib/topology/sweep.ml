(* /proc/self/status sampling: virtual-clock-safe (a file read consumes
   no simulated time) and absent-proc-safe (0 outside Linux). *)
let proc_status_kb key =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
      let prefix = key ^ ":" in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if
              String.length line >= String.length prefix
              && String.sub line 0 (String.length prefix) = prefix
            then
              String.fold_left
                (fun acc c ->
                  if c >= '0' && c <= '9' then (acc * 10) + Char.code c - 48
                  else acc)
                0 line
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let current_rss_kb () = proc_status_kb "VmRSS"
let peak_rss_kb () = proc_status_kb "VmHWM"
