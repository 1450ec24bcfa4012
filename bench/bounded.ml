(* E15: bounded state — the long soak behind DESIGN.md §4h and the
   test-suite miniature in test/suite_bounded.ml.

   Two questions, one table each:

   - Soak: does resident state stay flat as the run length grows?  Same
     stationary churn workload (one create + one delete per committed
     transaction) at increasing lengths; a leak anywhere — event log,
     store tombstones, per-object indexes, journal chain — shows up as
     heap growth proportional to the run.
   - Recovery: is boot time proportional to the post-checkpoint suffix
     (O(delta)) rather than the journal history?  Fixed run length,
     varying checkpoint cadence, plus a no-checkpoint baseline that
     replays the whole chain. *)

open Core

let bounded_config =
  {
    Engine.default_config with
    Engine.retire_in_tx = Some 1;
  }

let remove_chain path =
  let rm p = try Sys.remove p with Sys_error _ -> () in
  rm path;
  rm (Checkpoint.path_for path);
  let dir = Filename.dirname path and base = Filename.basename path in
  let prefix = base ^ ".seg-" in
  Array.iter
    (fun f ->
      if
        String.length f > String.length prefix
        && String.sub f 0 (String.length prefix) = prefix
      then rm (Filename.concat dir f))
    (Sys.readdir dir)

let chain_files path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let prefix = base ^ ".seg-" in
  let segs =
    Array.fold_left
      (fun n f ->
        if
          String.length f > String.length prefix
          && String.sub f 0 (String.length prefix) = prefix
        then n + 1
        else n)
      0 (Sys.readdir dir)
  in
  segs + (if Sys.file_exists path then 1 else 0)

(* The stationary transaction of the bounded suite: one create, one
   delete past a small population — state the engine must NOT retain is
   generated every commit, state it must retain stays constant. *)
let stationary_tx engine =
  Engine.execute_line_exn engine
    [ Domain.new_stock ~quantity:50 ~maxquantity:100 ~minquantity:10 ];
  (match Object_store.extent (Engine.store engine) ~class_name:"stock" with
  | oid :: _ :: _ :: _ :: _ ->
      Engine.execute_line_exn engine [ Operation.Delete { oid } ]
  | _ -> ());
  Engine.commit_exn engine

let journaled_engine ~path ~checkpoint_every =
  let engine = Scenario.engine ~config:bounded_config () in
  let journal = Journal.create ~path () in
  Engine.set_journal engine journal;
  (match checkpoint_every with
  | Some every_commits -> Engine.enable_checkpoints engine ~every_commits ()
  | None -> ());
  (engine, journal)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let soak_lengths = [ 500; 2_000; 8_000 ]
let soak_every = 50
let warmup = 100

let run_soak txs =
  let path = Filename.temp_file "chimera-e15" ".chj" in
  Fun.protect ~finally:(fun () -> remove_chain path) @@ fun () ->
  let engine, journal =
    journaled_engine ~path ~checkpoint_every:(Some soak_every)
  in
  let eb = Engine.event_base engine in
  for _ = 1 to warmup do
    stationary_tx engine
  done;
  let words0 = live_words () in
  let elapsed, () =
    Bench_util.time_once_ns (fun () ->
        for _ = 1 to txs do
          stationary_tx engine
        done)
  in
  let words1 = live_words () in
  let result =
    ( elapsed,
      words1 - words0,
      Event_base.size eb,
      Event_base.live_size eb,
      chain_files path )
  in
  Journal.close journal;
  result

let recovery_cadences = [ Some 25; Some 100; Some 400; None ]
let recovery_txs = 4_013 (* not a cadence multiple: a real suffix replays *)

let run_recovery checkpoint_every =
  let path = Filename.temp_file "chimera-e15" ".chj" in
  Fun.protect ~finally:(fun () -> remove_chain path) @@ fun () ->
  let engine, journal = journaled_engine ~path ~checkpoint_every in
  for _ = 1 to recovery_txs do
    stationary_tx engine
  done;
  ignore engine;
  Journal.close journal;
  let fresh = Scenario.engine ~config:bounded_config () in
  let elapsed, report =
    Bench_util.time_once_ns (fun () ->
        match Engine.recover fresh ~path with
        | Ok r -> r
        | Error msg -> failwith msg)
  in
  (elapsed, report)

let e15 () =
  Bench_util.print_header "E15: bounded state (checkpoints, GC, windows)";
  Bench_util.print_note
    "Stationary churn: each committed transaction creates one stock row\n\
     and deletes one past a small population.  Soak rows grow the run\n\
     16x; flat state means heap growth stays near zero regardless.\n\
     Recovery rows fix the run and vary the checkpoint cadence; boot\n\
     cost follows the post-checkpoint suffix, with the no-checkpoint\n\
     row replaying the whole chain as the O(history) baseline.";
  let json_rows = ref [] in
  let soak =
    Pretty.table
      ~title:
        (Printf.sprintf "soak (checkpoint every %d commits, %d warmup txs)"
           soak_every warmup)
      ~header:
        [ "txs"; "total"; "per tx"; "heap delta"; "log size"; "live"; "files" ]
      ~aligns:
        [ Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right;
          Pretty.Right; Pretty.Right ]
      ()
  in
  List.iter
    (fun txs ->
      let elapsed, heap_delta, log_size, live, files = run_soak txs in
      Pretty.add_row soak
        [
          string_of_int txs;
          Pretty.ns_cell elapsed;
          Pretty.ns_cell (elapsed /. float_of_int txs);
          Printf.sprintf "%+d w" heap_delta;
          string_of_int log_size;
          string_of_int live;
          string_of_int files;
        ];
      json_rows :=
        Bench_util.(
          J_obj
            [
              ("row", J_string "soak");
              ("transactions", J_int txs);
              ("total_ns", J_float elapsed);
              ("heap_delta_words", J_int heap_delta);
              ("log_absolute_size", J_int log_size);
              ("log_live_size", J_int live);
              ("chain_files", J_int files);
              ("checkpoint_every", J_int soak_every);
            ])
        :: !json_rows)
    soak_lengths;
  print_string (Pretty.render soak);
  let recovery =
    Pretty.table
      ~title:(Printf.sprintf "recovery after %d committed txs" recovery_txs)
      ~header:[ "ckpt every"; "boot"; "booted from"; "replayed records" ]
      ~aligns:[ Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  List.iter
    (fun cadence ->
      let elapsed, report = run_recovery cadence in
      let label =
        match cadence with None -> "none" | Some n -> string_of_int n
      in
      Pretty.add_row recovery
        [
          label;
          Pretty.ns_cell elapsed;
          (match report.Engine.booted_from_checkpoint with
          | Some seq -> Printf.sprintf "seq %d" seq
          | None -> "full replay");
          string_of_int report.Engine.replayed_records;
        ];
      json_rows :=
        Bench_util.(
          J_obj
            [
              ("row", J_string "recovery");
              ("checkpoint_every",
               match cadence with None -> J_string "none" | Some n -> J_int n);
              ("boot_ns", J_float elapsed);
              ( "booted_from_checkpoint",
                match report.Engine.booted_from_checkpoint with
                | Some seq -> J_int seq
                | None -> J_bool false );
              ("replayed_records", J_int report.Engine.replayed_records);
              ("last_commit_seq", J_int report.Engine.last_commit_seq);
              ("transactions", J_int recovery_txs);
            ])
        :: !json_rows)
    recovery_cadences;
  print_string (Pretty.render recovery);
  Bench_util.write_json ~experiment:"e15" (List.rev !json_rows)
