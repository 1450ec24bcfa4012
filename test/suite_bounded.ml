(* Bounded state under sustained load (DESIGN.md §4h, EXPERIMENTS.md E15
   in miniature — the long soak lives in bench/bounded.ml):

   - the live event window stays flat while the absolute log keeps
     growing (sliding-window retirement, not compaction: indices and
     event identifiers stay stable);
   - the heap stays flat over a stationary workload (retired prefixes
     are really freed, not merely hidden);
   - the journal chain on disk stays a handful of files (checkpoint +
     segment GC);
   - recovery is O(delta): it boots from the checkpoint and replays only
     the post-checkpoint suffix, with the ["journal.replayed_records"]
     observability counter agreeing with the recovery report;
   - the per-object index holds only the live window's objects: a stream
     of never-repeating oids keeps heap and per-event cost flat, and
     [occurred]/[at] bind in ascending oid whatever came before. *)

open Core

let temp_journal () = Filename.temp_file "chimera-bounded" ".chj"

let segment_files path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let prefix = base ^ ".seg-" in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix)

let remove_chain path =
  let rm p = try Sys.remove p with Sys_error _ -> () in
  rm path;
  rm (Checkpoint.path_for path);
  List.iter
    (fun f -> rm (Filename.concat (Filename.dirname path) f))
    (segment_files path)

let bounded_config =
  {
    Engine.default_config with
    Engine.retire_in_tx = Some 1;
  }

(* One stationary transaction: create a stock row, delete an old one
   once the population exceeds a handful.  Quantity 50 sits between the
   reorder and overflow thresholds, so the standard rules watch but
   never create objects of their own — the store population is constant
   and any heap growth is a leak. *)
(* Returns the live window size just before the commit (after it the
   window is empty by construction — every rule window restarts). *)
let stationary_tx engine =
  Engine.execute_line_exn engine
    [ Domain.new_stock ~quantity:50 ~maxquantity:100 ~minquantity:10 ];
  (match Object_store.extent (Engine.store engine) ~class_name:"stock" with
  | oid :: _ :: _ :: _ :: _ ->
      Engine.execute_line_exn engine [ Operation.Delete { oid } ]
  | _ -> ());
  let live = Event_base.live_size (Engine.event_base engine) in
  Engine.commit_exn engine;
  live

let journaled_engine ~path ~every_commits =
  let engine = Scenario.engine ~config:bounded_config () in
  let journal = Journal.create ~path () in
  Engine.set_journal engine journal;
  Engine.enable_checkpoints engine ~every_commits ();
  (engine, journal)

let test_soak_bounded () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_chain path) @@ fun () ->
  let engine, journal = journaled_engine ~path ~every_commits:8 in
  let eb = Engine.event_base engine in
  (* Warm up, then measure over a long second leg. *)
  for _ = 1 to 50 do
    ignore (stationary_tx engine)
  done;
  Gc.full_major ();
  let live_words0 = (Gc.stat ()).Gc.live_words in
  let size0 = Event_base.size eb in
  let max_window = ref 0 in
  for _ = 1 to 800 do
    max_window := max !max_window (stationary_tx engine)
  done;
  Gc.full_major ();
  let live_words1 = (Gc.stat ()).Gc.live_words in
  (* The absolute log grew by at least one occurrence per transaction
     (create events), yet the live window never exceeded a small
     constant: retirement keeps up with the workload. *)
  Alcotest.(check bool) "absolute log keeps growing" true
    (Event_base.size eb >= size0 + 800);
  Alcotest.(check bool)
    (Printf.sprintf "live window stays small (max %d)" !max_window)
    true
    (!max_window > 0 && !max_window <= 64);
  (* The heap is flat: 800 transactions appended thousands of absolute
     log entries; had retirement leaked them, live words would grow by
     tens of thousands.  Allow generous slack for allocator noise. *)
  let growth = live_words1 - live_words0 in
  Alcotest.(check bool)
    (Printf.sprintf "heap flat over 800 txs (grew %d words)" growth)
    true
    (growth < 20_000);
  (* The chain on disk is the live file plus at most a segment awaiting
     the next cycle — 100 checkpoint cycles GC'd the rest. *)
  Alcotest.(check bool)
    (Printf.sprintf "segments GC'd (%d left)"
       (List.length (segment_files path)))
    true
    (List.length (segment_files path) <= 1);
  Journal.close journal

let test_odelta_recovery () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_chain path) @@ fun () ->
  let engine, journal = journaled_engine ~path ~every_commits:10 in
  (* 57 commits: checkpoints at 10, 20, ..., 50; a 7-transaction
     suffix. *)
  for _ = 1 to 57 do
    ignore (stationary_tx engine)
  done;
  Journal.close journal;
  let counter = Obs.Metrics.counter "journal.replayed_records" in
  let counted0 = Obs.Metrics.counter_value counter in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let fresh = Scenario.engine ~config:bounded_config () in
  match Engine.recover fresh ~path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "all commits recovered" 57
        report.Engine.last_commit_seq;
      Alcotest.(check (option int)) "booted from the last checkpoint"
        (Some 50) report.Engine.booted_from_checkpoint;
      (* O(delta): only the 7-transaction suffix replays from the
         journal.  A stationary transaction is a handful of records; a
         full-history replay would be well past a thousand. *)
      Alcotest.(check bool)
        (Printf.sprintf "suffix-sized replay (%d records)"
           report.Engine.replayed_records)
        true
        (report.Engine.replayed_records <= 200);
      Alcotest.(check int) "obs counter tracks the replay"
        report.Engine.replayed_records
        (Obs.Metrics.counter_value counter - counted0);
      (* The recovered engine agrees with the survivor on the store. *)
      Alcotest.(check int) "store population matches"
        (Object_store.count_live (Engine.store engine))
        (Object_store.count_live (Engine.store fresh))

let test_checkpoint_now_paths () =
  (* Not enabled (no journal): checkpoint_now errors, path is None. *)
  let plain = Scenario.engine ~config:bounded_config () in
  Alcotest.(check bool) "no checkpoint path without enablement" true
    (Engine.checkpoint_path plain = None);
  (match Engine.checkpoint_now plain with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checkpoint_now succeeded without enablement");
  (* Enabled: an explicit checkpoint lands on disk at the derived path
     and covers the last committed sequence. *)
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_chain path) @@ fun () ->
  let engine, journal = journaled_engine ~path ~every_commits:1000 in
  for _ = 1 to 3 do
    ignore (stationary_tx engine)
  done;
  Alcotest.(check (option string)) "derived checkpoint path"
    (Some (Checkpoint.path_for path))
    (Engine.checkpoint_path engine);
  (match Engine.checkpoint_now engine with
  | Error msg -> Alcotest.fail msg
  | Ok (seq, _gced) ->
      Alcotest.(check int) "covers the last commit" 3 seq;
      Alcotest.(check bool) "checkpoint on disk" true
        (Sys.file_exists (Checkpoint.path_for path)));
  Journal.close journal

(* ----------------------------------------- per-object index bounds *)

let etype name =
  match Event_type.of_string name with
  | Ok e -> e
  | Error msg -> Alcotest.failf "event type %s: %s" name msg

(* A watched ad-hoc rule built from a subscription body, as the server's
   SUB verb builds it; [coupling] lets a test see a whole transaction's
   window at once. *)
let define_watched engine ~name ?(coupling = Rule.Immediate) body =
  match Lang_parser.parse_subscription body with
  | Error msg -> Alcotest.failf "subscription %s: %s" body msg
  | Ok (event, condition) -> (
      let spec =
        {
          Rule.name;
          target = None;
          event;
          condition;
          action = [];
          coupling;
          consumption = Rule.Consuming;
          priority = 0;
        }
      in
      match Engine.define_dynamic engine spec with
      | Ok _ -> Engine.watch_rule engine name
      | Error (`Rule_error msg) -> Alcotest.failf "define %s: %s" name msg)

let ingest engine ~etype ~oid =
  match Engine.ingest_event engine ~etype ~oid:(Ident.Oid.of_int oid) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %a" Engine.pp_error e

(* An engine with the subscribe-push shapes — 15 primitive subscriptions
   over four types plus one composite — and its event feed: [feed k]
   ingests [k] events, each on a fresh oid (its index in the stream),
   committing every 10. *)
let push_engine () =
  let types = Array.map etype [| "s0"; "s1"; "s2"; "s3" |] in
  let engine = Engine.create (Domain.schema ()) in
  for i = 0 to 14 do
    let ty = Printf.sprintf "s%d" (i mod 4) in
    define_watched engine ~name:(Printf.sprintf "sub.%d" i)
      (Printf.sprintf "ON { %s } DO at({ %s }, X, T)" ty ty)
  done;
  define_watched engine ~name:"sub.15" "ON { s0 < s1 } DO at({ s1 }, X, T)";
  let next = ref 0 in
  let prng = Prng.create ~seed:24 in
  let feed count =
    for _ = 1 to count do
      ingest engine ~etype:types.(Prng.next_int prng ~bound:4) ~oid:!next;
      incr next;
      if !next mod 10 = 0 then begin
        Engine.commit_exn engine;
        ignore (Engine.drain_activations engine)
      end
    done
  in
  (engine, feed)

(* The per-object index must hold only the transaction's objects, so a
   stream of never-repeating oids keeps both the live heap and the
   per-event cost flat however many objects went by. *)
let test_unique_oid_soak () =
  let n = 5_000 in
  let engine, feed = push_engine () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  feed n;
  let words_n = live_words () in
  feed (2 * n);
  (* Per-event time of the last N events against that of a fresh twin's
     first N, chunk by chunk in alternation and the best chunk of each:
     a slow spell of the machine hits both sides alike, while cost that
     grows with the objects seen shows in every chunk. *)
  let first, last =
    let _twin, twin_feed = push_engine () in
    let chunk = n / 10 in
    let per_event f =
      let t0 = Unix.gettimeofday () in
      f chunk;
      (Unix.gettimeofday () -. t0) /. float_of_int chunk
    in
    List.fold_left
      (fun (first, last) () ->
        let f = per_event twin_feed in
        (Float.min first f, Float.min last (per_event feed)))
      (infinity, infinity) (List.init 10 ignore)
  in
  let words_4n = live_words () in
  (* Reading the engine here keeps it reachable through both heap
     measurements. *)
  Alcotest.(check int) "every event recorded" (4 * n)
    (Event_base.size (Engine.event_base engine));
  Alcotest.(check bool)
    (Printf.sprintf "live words flat from N to 4N (%d -> %d)" words_n
       words_4n)
    true
    (words_4n <= words_n + 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "per-event time flat (%.1f us -> %.1f us)"
       (first *. 1e6) (last *. 1e6))
    true
    (last <= 1.5 *. first)

(* The binding order of [occurred] and [at] is ascending oid, decided by
   the window alone: an engine that saw oid 7 in an earlier transaction,
   and one that aborted a transaction touching 7 before 3, bind exactly
   as a fresh engine fed only the final transaction — windowed or not. *)
let test_binding_order () =
  let s0 = etype "s0" in
  let engine ~window_events =
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.window_events }
        (Domain.schema ())
    in
    define_watched engine ~name:"occ" ~coupling:Rule.Deferred
      "ON { s0 } DO occurred({ s0 }, X)";
    define_watched engine ~name:"at" ~coupling:Rule.Deferred
      "ON { s0 } DO at({ s0 }, X, T)";
    engine
  in
  let touch engine oids = List.iter (fun oid -> ingest engine ~etype:s0 ~oid) oids in
  (* The X values each watched rule bound at the commit, in order. *)
  let commit_bindings engine =
    Engine.commit_exn engine;
    List.map
      (fun a ->
        ( a.Engine.act_rule,
          List.map (fun env -> List.assoc "X" env) a.Engine.act_bindings ))
      (Engine.drain_activations engine)
  in
  let oid i = Value.to_string (Value.Oid (Ident.Oid.of_int i)) in
  let expected = [ ("at", [ oid 3; oid 7 ]); ("occ", [ oid 3; oid 7 ]) ] in
  let check what got =
    Alcotest.(check (list (pair string (list string)))) what expected
      (List.sort compare got)
  in
  let fresh = engine ~window_events:true in
  touch fresh [ 3; 7 ];
  check "fresh engine" (commit_bindings fresh);
  List.iter
    (fun window_events ->
      let what = if window_events then "windowed" else "unwindowed" in
      let long = engine ~window_events in
      touch long [ 7 ];
      ignore (commit_bindings long);
      touch long [ 3; 7 ];
      check (what ^ ", after a committed touch of 7") (commit_bindings long);
      touch long [ 7; 3 ];
      Engine.abort long;
      touch long [ 3; 7 ];
      check (what ^ ", after an abort") (commit_bindings long))
    [ true; false ]

let suite =
  [
    Alcotest.test_case "soak: window, heap and chain stay bounded" `Quick
      test_soak_bounded;
    Alcotest.test_case "recovery replays only the checkpoint suffix" `Quick
      test_odelta_recovery;
    Alcotest.test_case "checkpoint_now: error and success paths" `Quick
      test_checkpoint_now_paths;
    Alcotest.test_case "soak: unique oids keep heap and cost flat" `Quick
      test_unique_oid_soak;
    Alcotest.test_case "occurred/at bind in ascending oid" `Quick
      test_binding_order;
  ]
