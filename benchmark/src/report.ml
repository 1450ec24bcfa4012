(* Result files, run metadata, and the two judgements over sets of runs:
   [compare] (parent against change) and [stability] (a commit against
   itself). *)

type direction = Lower | Higher

(* How a metric may move: its better direction, and the bound by which it
   may get worse — a share of the baseline median, or an absolute amount.
   Only BENCHMARK.json's metrics are [enforced]: a verdict on another one
   is reported but decides nothing. *)
type bound = { better : direction; bound : float; absolute : bool; enforced : bool }

let extra better bound = { better; bound; absolute = false; enforced = false }

(* The reported end-to-end metrics that BENCHMARK.json does not list:
   those only some workloads have, the commit median and the p99
   latencies (too few samples, or too few outside the server's stalls, to
   repeat within any bound a metric there may have, see README.md), and
   the ratios that are 0 when all is well. *)
let extra_bounds =
  [
    ("commit_p50_ms", extra Lower 0.25);
    ("ack_p99_ms", extra Lower 0.2);
    ("commit_p99_ms", extra Lower 0.2);
    ("notify_p50_ms", extra Lower 0.2);
    ("notify_p99_ms", extra Lower 0.2);
    ("notify_eps", extra Higher 0.25);
    ("recover_s", extra Lower 0.25);
    ("gap_ratio", { (extra Lower 0.01) with absolute = true });
    ("error_ratio", { (extra Lower 0.) with absolute = true });
  ]

let bounds_of_benchmark path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok json -> (
      match Option.bind (Json.member "end_to_end" json) Json.to_list with
      | None -> Error (path ^ ": no end_to_end list")
      | Some items ->
          Ok
            (List.filter_map
               (fun item ->
                 match
                   ( Option.bind (Json.member "name" item) Json.to_str,
                     Option.bind (Json.member "better" item) Json.to_str,
                     Option.bind (Json.member "bound" item) Json.to_float )
                 with
                 | Some name, Some better, Some bound ->
                     Some
                       ( name,
                         {
                           better = (if better = "higher" then Higher else Lower);
                           bound;
                           absolute = false;
                           enforced = true;
                         } )
                 | _ -> None)
               items
            @ extra_bounds))

(* ---------------------------------------------------------- metadata *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out revision, read from .git without running git; the
   benchmark also runs from exported trees, which have none. *)
let git_revision () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" ref_)) with
      | rev -> rev
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ rev; name ] when name = ref_ -> rev
                  | _ -> acc)
                "unknown"
                (String.split_on_char '\n' packed)))
  | rev -> rev

(* Lines of OCaml source under lib/ and bin/, the size ROADMAP tracks
   beside the benchmark numbers. *)
let source_lines () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | entries ->
        Array.fold_left
          (fun acc e ->
            let path = Filename.concat dir e in
            if Sys.is_directory path then acc + walk path
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then
              String.fold_left (fun n c -> if c = '\n' then n + 1 else n) acc (read_file path)
            else acc)
          0 entries
  in
  walk "lib" + walk "bin"

let meta ~seconds =
  Json.Obj
    [
      ("git_revision", Json.Str (git_revision ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("lib_bin_lines", Json.Int (source_lines ()));
      ("seconds", Json.Num seconds);
    ]

(* ------------------------------------------------------------ results *)

let metrics_json (ms : Bench.metric list) =
  Json.Obj
    (List.map
       (fun (m : Bench.metric) ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

let result_json (r : Bench.result) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r.metrics);
      ("extra", metrics_json r.extra);
      ("detail", r.detail);
    ]

(* A result file holds the metadata and a list of runs, each one pass over
   the workloads with one seed. *)
let run_json ~seed ~trace results =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("results", Json.List (List.map result_json results));
    ]

let save ~path ~append ~meta run =
  let previous =
    if append && Sys.file_exists path then
      match Json.read_file path with
      | Ok json -> Option.value ~default:[] (Option.bind (Json.member "runs" json) Json.to_list)
      | Error _ -> []
    else []
  in
  Json.write_file path (Json.Obj [ ("meta", meta); ("runs", Json.List (previous @ [ run ])) ])

(* Per (workload, metric): the values of the untraced runs of a file, in
   run order. *)
let values path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok json ->
      let runs = Option.value ~default:[] (Option.bind (Json.member "runs" json) Json.to_list) in
      let table = Hashtbl.create 64 and order = ref [] in
      List.iter
        (fun run ->
          if Json.member "trace" run <> Some (Json.Bool true) then
            List.iter
              (fun result ->
                let workload =
                  Option.value ~default:"?" (Option.bind (Json.member "workload" result) Json.to_str)
                in
                List.iter
                  (fun section ->
                    match Json.member section result with
                    | Some (Json.Obj ms) ->
                        List.iter
                          (fun (name, m) ->
                            match Option.bind (Json.member "value" m) Json.to_float with
                            | Some v ->
                                let key = (workload, name) in
                                if not (Hashtbl.mem table key) then order := key :: !order;
                                Hashtbl.replace table key
                                  (v :: Option.value ~default:[] (Hashtbl.find_opt table key))
                            | None -> ())
                          ms
                    | _ -> ())
                  [ "metrics"; "extra" ])
              (Option.value ~default:[] (Option.bind (Json.member "results" run) Json.to_list)))
        runs;
      Ok
        (List.rev_map
           (fun key -> (key, Array.of_list (List.rev (Hashtbl.find table key))))
           !order)

(* --------------------------------------------------------- judgements *)

let better b x y = match b.better with Lower -> x < y | Higher -> x > y

(* How much worse [x] is than [base], in the bound's terms (negative when
   better). *)
let worsening b ~base x =
  let d = match b.better with Lower -> x -. base | Higher -> base -. x in
  if b.absolute then d else d /. Float.abs base

let spread b values =
  if b.absolute then
    let q1, q3 = Stats.quartiles values in
    q3 -. q1
  else Stats.iqr_share values

(* Parent [p] against change [c], paired by index (the runs alternate
   which side goes first).  Improved: the change wins at least nine pairs
   in ten and its median beats the parent's by more than the parent's
   interquartile range.  Worse: the change's median is worse by more than
   the bound.  Unresolved: the parent's own spread exceeds the bound and
   not every change run beats every parent run. *)
let compare_metric b ~parent:p ~change:c =
  let pairs = min (Array.length p) (Array.length c) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b c.(i) p.(i) then incr wins
  done;
  let mp = Stats.median p and mc = Stats.median c in
  let q1, q3 = Stats.quartiles p in
  let all_better = Array.for_all (fun x -> Array.for_all (fun y -> better b x y) p) c in
  if 10 * !wins >= 9 * pairs && better b mc mp && Float.abs (mc -. mp) > q3 -. q1 then
    "improved"
  else if worsening b ~base:mp mc > b.bound then "worse beyond bound"
  else if spread b p > b.bound && not all_better then "unresolved"
  else "unchanged"

type row = {
  workload : string;
  metric : string;
  median_a : float;
  median_b : float;
  spread_a : float;
  spread_b : float;
  bound : float;
  enforced : bool;
  status : string;
}

let pp_rows rows =
  Printf.printf "%-16s %-16s %14s %14s %9s %9s %7s  %s\n" "workload" "metric" "median A"
    "median B" "spread A" "spread B" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-16s %14.6g %14.6g %9.4f %9.4f %7.3f  %s%s\n" r.workload r.metric
        r.median_a r.median_b r.spread_a r.spread_b r.bound r.status
        (if r.enforced then "" else " (not enforced)"))
    rows

let judge ~bounds ~a ~b f =
  List.filter_map
    (fun ((workload, metric), va) ->
      match (List.assoc_opt metric bounds, List.assoc_opt (workload, metric) b) with
      | Some bd, Some vb ->
          Some
            {
              workload;
              metric;
              median_a = Stats.median va;
              median_b = Stats.median vb;
              spread_a = spread bd va;
              spread_b = spread bd vb;
              bound = bd.bound;
              enforced = bd.enforced;
              status = f metric bd va vb;
            }
      | _ -> None)
    a

let compare ~bounds ~parent ~change =
  let pairs = List.fold_left (fun acc (_, v) -> min acc (Array.length v)) max_int parent in
  let pairs = List.fold_left (fun acc (_, v) -> min acc (Array.length v)) pairs change in
  if pairs < 10 then Error (Printf.sprintf "compare needs at least 10 runs a side, found %d" pairs)
  else
    Ok
      (judge ~bounds ~a:parent ~b:change (fun _ bd p c -> compare_metric bd ~parent:p ~change:c))

(* Two sets of runs of one commit agree when each set's spread and the
   distance between their medians stay within every metric's bound.  The
   set-up time is judged by its medians alone: it is there so that work
   moved into set-up shows, and a run already reports the median of its
   eight set-ups. *)
let stability ~bounds ~a ~b =
  judge ~bounds ~a ~b (fun metric bd va vb ->
      let drift = Float.abs (worsening bd ~base:(Stats.median va) (Stats.median vb)) in
      let steady v = metric = "setup_s" || spread bd v <= bd.bound in
      if drift <= bd.bound && steady va && steady vb then "ok" else "outside bound")
