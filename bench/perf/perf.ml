(* The end-to-end benchmark runner.

   perf.exe run --workload <name|all> --seed N [--seconds S] [--json FILE]
                [--trace FILE] [--smoke]
   perf.exe compare PARENT.json CHANGE.json [--bench BENCHMARK.json]

   `run` prints one line per metric, "<workload> <metric> <value> <unit>
   n=<samples>", then the run's result as one JSON object; --json also
   appends that object, tagged with workload and seed, to a ledger file
   that `compare` reads.  The timed phase is sized to last about S
   seconds.  Without --trace the metrics are the end-to-end ones; with
   it the per-layer ones, and the spans go to FILE.  A run whose
   operations or checks fail exits 1; a command-line error exits 2. *)

open Perf_bench
open Cmdliner

let result_fields (o : Workloads.outcome) =
  [
    ("correct", Json.Bool (o.Workloads.failed = 0));
    ("attempted", Json.Num (float_of_int o.Workloads.attempted));
    ("failed", Json.Num (float_of_int o.Workloads.failed));
    ( "metrics",
      Json.Obj
        (List.map
           (fun (m : Workloads.metric) ->
             ( m.Workloads.name,
               Json.Obj [ ("value", Json.Num m.Workloads.value); ("unit", Json.Str m.Workloads.unit_) ]
             ))
           o.Workloads.metrics) );
  ]

let run workload seed seconds json trace smoke =
  let kinds =
    if workload = "all" then Workloads.workloads
    else [ (workload, List.assoc workload Workloads.workloads) ]
  in
  let seconds = if smoke then 0.0 else seconds in
  let spans = Option.map open_out trace in
  Option.iter (fun oc -> output_string oc Trace.tsv_header) spans;
  let ledger = Option.map (open_out_gen [ Open_append; Open_creat ] 0o644) json in
  let status = ref 0 in
  List.iter
    (fun (name, kind) ->
      let o = Workloads.run kind ~seed ~seconds ~smoke ~spans in
      List.iter
        (fun (m : Workloads.metric) ->
          Printf.printf "%s %s %s %s n=%d\n" name m.Workloads.name (Json.number m.Workloads.value)
            m.Workloads.unit_ m.Workloads.samples)
        o.Workloads.metrics;
      List.iter (fun p -> Printf.eprintf "%s: %s\n" name p) o.Workloads.problems;
      if o.Workloads.failed > 0 then status := 1;
      let fields = result_fields o in
      print_endline (Json.to_string (Json.Obj fields));
      Option.iter
        (fun oc ->
          let tagged =
            ("workload", Json.Str name)
            :: ("seed", Json.Num (float_of_int seed))
            :: ("trace", Json.Bool (trace <> None))
            :: fields
          in
          output_string oc (Json.to_string (Json.Obj tagged) ^ "\n"))
        ledger)
    kinds;
  Option.iter close_out spans;
  Option.iter close_out ledger;
  !status

let compare parent change bench =
  let read_file f = In_channel.with_open_bin f In_channel.input_all in
  let ( let* ) = Result.bind in
  match
    let* bench = Json.parse (read_file bench) in
    let* bounds = Compare.bounds bench in
    let* a = Compare.read_ledger parent in
    let* b = Compare.read_ledger change in
    Ok (bounds, Compare.rows bounds a b)
  with
  | Error e ->
      prerr_endline ("perf compare: " ^ e);
      2
  | Ok (bounds, rows) ->
      Compare.print bounds rows;
      if List.exists (fun (r : Compare.row) -> r.Compare.result = Compare.Worse) rows then 1 else 0

let run_cmd =
  let names = "all" :: List.map fst Workloads.workloads in
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run, or $(b,all).")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Seed every input is made from.") in
  let seconds =
    Arg.(value & opt float 12.0 & info [ "seconds" ] ~doc:"Timed seconds, on the reference machine.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Append results to a ledger.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Traced run: per-layer metrics, spans written to FILE.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Small directory; stop at the end of the virtual window.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a benchmark workload.")
    Term.(const run $ workload $ seed $ seconds $ json $ trace $ smoke)

let compare_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:doc) in
  let bench =
    Arg.(value & opt file "BENCHMARK.json" & info [ "bench" ] ~doc:"Benchmark definition with the bounds.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two run ledgers under the benchmark's bounds.")
    Term.(const compare $ file 0 "PARENT" $ file 1 "CHANGE" $ bench)

let () =
  let cmd = Cmd.group (Cmd.info "perf" ~doc:"End-to-end benchmark.") [ run_cmd; compare_cmd ] in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error _ -> 2)
