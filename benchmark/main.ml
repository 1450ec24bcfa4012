(* The repository benchmark; see README.md in this directory.

     main.exe bench --workload W --seed N --seconds S --trace 0|1
         one workload once; the last stdout line is the result object
     main.exe run --seed N --out R.json [--append]
         every workload once, untraced, into a result file
     main.exe trace --seed N --out T.json [--append]
         every workload once, with the per-layer trace
     main.exe compare PARENT.json CHANGE.json
     main.exe stability A.json B.json *)

open Chimera_benchmark
open Cmdliner

let chimera_arg =
  Arg.(
    value
    & opt string "_build/default/bin/chimera.exe"
    & info [ "chimera" ] ~docv:"PATH" ~doc:"The chimera executable to serve with.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let seconds_arg =
  Arg.(
    value & opt float 20.
    & info [ "seconds" ] ~docv:"S" ~doc:"Run length per workload; the phases split it.")

(* One workload once, in a scratch directory of the checkout, removed
   afterwards (with .benchwork itself once empty). *)
let run_one ~chimera ~seconds ~trace (w : Workload.t) ~seed =
  let cfg =
    { Bench.chimera; workdir = Printf.sprintf ".benchwork/%s-%d" w.name (Unix.getpid ()); seconds }
  in
  Fun.protect
    ~finally:(fun () ->
      Sut.rm_rf cfg.workdir;
      try Unix.rmdir ".benchwork" with Unix.Unix_error _ -> ())
    (fun () -> if trace then Bench.trace cfg w ~seed else Bench.run cfg w ~seed)

let print_metrics (r : Bench.result) =
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%-16s %-32s %16.6g %s\n" r.workload m.name m.value m.unit_)
    (r.metrics @ r.extra);
  if not r.correct then
    Printf.printf "%-16s FAILED: %d of %d request(s) or gate(s)\n" r.workload r.failed r.attempted

let failure msg = `Error (false, msg)

let bench chimera workload seed seconds trace =
  match Workload.find workload with
  | None -> failure ("unknown workload " ^ workload)
  | Some w -> (
      match run_one ~chimera ~seconds ~trace w ~seed with
      | exception Bench.Run_failed msg -> failure msg
      | r ->
          print_metrics r;
          prerr_endline (Json.to_string ~indent:true (Report.result_json r));
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("correct", Json.Bool r.correct);
                    ("attempted", Json.Int r.attempted);
                    ("failed", Json.Int r.failed);
                    ("metrics", Report.metrics_json r.metrics);
                  ]));
          if r.correct then `Ok () else exit 1)

let bench_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: the per-layer metrics instead of the end-to-end ones.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one workload once (the entry point of BENCHMARK.json)")
    Term.(ret (const bench $ chimera_arg $ workload $ seed_arg $ seconds_arg $ trace))

let run_all ~trace chimera seed seconds out append =
  match
    List.map (fun w -> run_one ~chimera ~seconds ~trace w ~seed) Workload.all
  with
  | exception Bench.Run_failed msg -> failure msg
  | results ->
      List.iter print_metrics results;
      Report.save ~path:out ~append ~meta:(Report.meta ~seconds)
        (Report.run_json ~seed ~trace results);
      if List.for_all (fun (r : Bench.result) -> r.correct) results then `Ok () else exit 1

let run_cmd ~trace name doc =
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE") in
  let append =
    Arg.(value & flag & info [ "append" ] ~doc:"Add the run to FILE's runs instead of replacing them.")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const (run_all ~trace) $ chimera_arg $ seed_arg $ seconds_arg $ out $ append))

let benchmark_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"FILE" ~doc:"Where the end-to-end bounds are.")

let judge f benchmark a b =
  match (Report.bounds_of_benchmark benchmark, Report.values a, Report.values b) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> failure msg
  | Ok bounds, Ok va, Ok vb -> (
      match f ~bounds va vb with
      | Error msg -> failure msg
      | Ok (rows, bad) ->
          Report.pp_rows rows;
          if List.exists bad rows then exit 1 else `Ok ())

let compare_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"PARENT") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"CHANGE") in
  let f ~bounds parent change =
    Result.map
      (fun rows ->
        (rows, fun (r : Report.row) -> r.enforced && r.status = "worse beyond bound"))
      (Report.compare ~bounds ~parent ~change)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Verdict per metric and workload, parent runs against change runs (at least 10 each)")
    Term.(ret (const (judge f) $ benchmark_arg $ a $ b))

let stability_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let f ~bounds a b =
    Ok (Report.stability ~bounds ~a ~b, fun (r : Report.row) -> r.enforced && r.status <> "ok")
  in
  Cmd.v
    (Cmd.info "stability" ~doc:"Check that two sets of runs of one commit agree within the bounds")
    Term.(ret (const (judge f) $ benchmark_arg $ a $ b))

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "benchmark")
          [
            bench_cmd;
            run_cmd ~trace:false "run" "Run every workload once into a result file";
            run_cmd ~trace:true "trace" "Run every workload once with the per-layer trace";
            compare_cmd;
            stability_cmd;
          ]))
