(* Durability: journal framing, crash recovery under fault injection,
   transaction abort, block atomicity and engine error-path hygiene.

   The central properties (the acceptance criteria of the durability
   extension, DESIGN.md §4b):

   - Crash recovery: for a seeded workload with failpoints armed at
     EVERY journal write/fsync/rename boundary in turn (torn writes
     included), recovery from the abandoned journal reproduces exactly
     the state after the last committed transaction — compared by store
     dump, by the full event log, and by ts probes.
   - Abort: [Engine.abort] is observationally equivalent to the
     transaction never having run, including for a follow-up
     transaction.

   The crash matrix honours CHIMERA_FAULT_SEED so CI can sweep seeds. *)

open Core

let fault_seed =
  match Sys.getenv_opt "CHIMERA_FAULT_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some n -> n | None -> 42)
  | None -> 42

let temp_journal () = Filename.temp_file "chimera-recovery" ".chj"
let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------- comparisons *)

let store_dump engine =
  List.map Store_codec.object_to_line
    (Object_store.dump_objects (Engine.store engine))

let event_log engine = Event_codec.to_string (Engine.event_base engine)

(* ts values of the domain's primitives and two composites, at every
   probe instant of the log: activation timestamps are part of the
   observable state recovery must reproduce. *)
let probe_exprs =
  List.map Expr_parse.parse_exn
    [
      "create(stock)";
      "modify(stock.quantity)";
      "delete(stock)";
      "create(stock) < modify(stock.quantity)";
      "modify(stock.quantity) , -delete(stock)";
    ]

let ts_probes engine =
  let eb = Engine.event_base engine in
  let env = Ts.env eb ~window:(Window.all ~upto:(Event_base.probe_now eb)) in
  let probes = Gen.probe_instants eb in
  List.concat_map
    (fun e -> List.map (fun at -> Ts.ts env ~at e) probes)
    probe_exprs

let check_same_state ~msg reference recovered =
  Alcotest.(check (list string))
    (msg ^ ": store dump") (store_dump reference) (store_dump recovered);
  Alcotest.(check string)
    (msg ^ ": event log") (event_log reference) (event_log recovered);
  Alcotest.(check (list int))
    (msg ^ ": ts probes") (ts_probes reference) (ts_probes recovered);
  Alcotest.(check int)
    (msg ^ ": oid generator")
    (Object_store.oid_count (Engine.store reference))
    (Object_store.oid_count (Engine.store recovered))

(* ------------------------------------------------ workload scaffolds *)

(* [txs] committed transactions of seeded inventory traffic.  The prng
   stream is consumed transaction by transaction, so a reference engine
   driven with the same seed for the first R transactions reproduces a
   crashed run's committed prefix exactly. *)
let drive ?(seed = fault_seed) engine ~txs ~lines ~ops =
  let prng = Prng.create ~seed in
  for _ = 1 to txs do
    Scenario.run_inventory_traffic prng engine ~lines ~ops_per_line:ops;
    Engine.commit_exn engine
  done

let reference_after ?config ~seed ~txs ~lines ~ops () =
  let engine = Scenario.engine ?config () in
  drive ~seed engine ~txs ~lines ~ops;
  engine

(* ------------------------------------------------ journal unit tests *)

let test_crc32 () =
  (* The standard CRC-32 check value. *)
  Alcotest.(check int)
    "crc32 check value" 0xCBF43926
    (Journal.crc32 "123456789")

let test_journal_roundtrip () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let j = Journal.create ~path () in
  Journal.append j ~tag:"op" "create\tstock";
  Journal.append j ~tag:"ev" "1\tcreate(stock)\t1\t2";
  Journal.commit j;
  Journal.append j ~tag:"op" "delete\t1";
  Journal.abort j;
  Journal.append j ~tag:"op" "select\tstock";
  Journal.commit j;
  Journal.append j ~tag:"op" "uncommitted";
  Journal.flush_block j;
  Journal.close j;
  match Journal.read ~path with
  | Error msg -> Alcotest.fail msg
  | Ok replay ->
      Alcotest.(check int)
        "committed txs" 2
        (List.length replay.Journal.committed);
      Alcotest.(check int) "last seq" 2 replay.Journal.last_commit_seq;
      Alcotest.(check int)
        "committed entries" 3 replay.Journal.entries_committed;
      Alcotest.(check int) "uncommitted" 1 replay.Journal.uncommitted_entries;
      Alcotest.(check int) "torn bytes" 0 replay.Journal.torn_bytes;
      let tags =
        List.map
          (fun e -> e.Journal.tag)
          (List.concat replay.Journal.committed)
      in
      (* The aborted transaction's flushed record must not replay. *)
      Alcotest.(check (list string)) "tags" [ "op"; "ev"; "op" ] tags

let test_torn_tail_tolerated () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let j = Journal.create ~path () in
  Journal.append j ~tag:"op" "first";
  Journal.commit j;
  Journal.append j ~tag:"op" "second-record-with-a-long-payload";
  Journal.commit j;
  Journal.close j;
  let content =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Cut the file mid-way through the second transaction's records. *)
  let cut = String.length content - 7 in
  let oc = open_out_bin path in
  output_string oc (String.sub content 0 cut);
  close_out oc;
  match Journal.read ~path with
  | Error msg -> Alcotest.fail msg
  | Ok replay ->
      Alcotest.(check int)
        "only the intact tx" 1
        (List.length replay.Journal.committed);
      Alcotest.(check int) "seq stops at 1" 1 replay.Journal.last_commit_seq;
      Alcotest.(check bool)
        "torn bytes reported" true
        (replay.Journal.torn_bytes > 0)

let test_foreign_file_rejected () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "not a journal at all\n";
  close_out oc;
  (match Journal.read ~path with
  | Error msg ->
      Alcotest.(check bool)
        "error mentions header" true
        (contains_sub msg "header")
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Journal.read ~path:(path ^ ".definitely-absent") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ----------------------------------------------- recovery (no fault) *)

let test_recover_clean () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let engine = Scenario.engine () in
  Engine.set_journal engine (Journal.create ~path ());
  drive engine ~txs:3 ~lines:8 ~ops:3;
  Option.iter Journal.close (Engine.journal engine);
  let recovered = Scenario.engine () in
  match Engine.recover recovered ~path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "three txs" 3 report.Engine.recovered_commits;
      Alcotest.(check int) "seq" 3 report.Engine.last_commit_seq;
      let reference =
        reference_after ~seed:fault_seed ~txs:3 ~lines:8 ~ops:3 ()
      in
      check_same_state ~msg:"clean recovery" reference recovered;
      (* Recovery counters surface in the engine stats. *)
      let stats = Engine.statistics recovered in
      Alcotest.(check int)
        "stats.recovered_commits" 3 stats.Engine.recovered_commits;
      Alcotest.(check bool)
        "stats.recovered_entries" true
        (stats.Engine.recovered_entries > 0)

let test_recover_uncommitted_dropped () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let engine = Scenario.engine () in
  Engine.set_journal engine (Journal.create ~path ());
  let prng = Prng.create ~seed:fault_seed in
  Scenario.run_inventory_traffic prng engine ~lines:6 ~ops_per_line:3;
  Engine.commit_exn engine;
  (* A second transaction that never commits: flushed but uncommitted. *)
  Scenario.run_inventory_traffic prng engine ~lines:6 ~ops_per_line:3;
  Option.iter Journal.close (Engine.journal engine);
  let recovered = Scenario.engine () in
  match Engine.recover recovered ~path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "one tx" 1 report.Engine.recovered_commits;
      Alcotest.(check bool)
        "uncommitted reported" true
        (report.Engine.dropped_entries > 0);
      let reference =
        reference_after ~seed:fault_seed ~txs:1 ~lines:6 ~ops:3 ()
      in
      check_same_state ~msg:"uncommitted dropped" reference recovered

(* ------------------------------------- crash-recovery property (core) *)

(* Runs the workload against a journaled engine expecting a [Crash];
   returns the journal (when its descriptor was created) so the caller
   can abandon it — losing unflushed bytes, as a real kill would. *)
let run_until_crash ~path ~sync ~config ~txs ~lines ~ops =
  let engine = Scenario.engine ~config () in
  match Journal.create ~sync ~path () with
  | exception Failpoint.Crash _ -> (None, true)
  | journal -> (
      Engine.set_journal engine journal;
      match drive engine ~txs ~lines ~ops with
      | () -> (Some journal, false)
      | exception Failpoint.Crash _ -> (Some journal, true))

(* The acceptance property: crash at every journal boundary in turn and
   assert recovery ≡ the last committed prefix re-run on a fresh
   engine. *)
let crash_matrix ~name ~sync ~txs ~lines ~ops () =
  let config =
    { Engine.default_config with Engine.max_rule_executions = 10_000 }
  in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      remove_if_exists path)
  @@ fun () ->
  (* Pass 1: count the journal boundaries of the fault-free run. *)
  Failpoint.arm ~seed:fault_seed ~after:max_int ();
  let journal, crashed = run_until_crash ~path ~sync ~config ~txs ~lines ~ops in
  Alcotest.(check bool) (name ^ ": fault-free run completes") false crashed;
  Option.iter Journal.close journal;
  let boundaries = Failpoint.total_hits () in
  Failpoint.clear ();
  Alcotest.(check bool)
    (name ^ ": scenario has boundaries")
    true (boundaries > 0);
  (* Pass 2: crash at each boundary; recover; compare with the reference
     prefix.  References are cached per commit count — recovery across
     the whole matrix only ever lands on a committed prefix. *)
  let references = Hashtbl.create 8 in
  let reference_for commits =
    match Hashtbl.find_opt references commits with
    | Some engine -> engine
    | None ->
        let engine =
          reference_after ~config ~seed:fault_seed ~txs:commits ~lines ~ops ()
        in
        Hashtbl.replace references commits engine;
        engine
  in
  for boundary = 0 to boundaries - 1 do
    (* Varying the seed varies the torn-write cut points; the boundary
       order itself is seed-independent. *)
    Failpoint.arm ~seed:(fault_seed + boundary) ~after:boundary ();
    let journal, crashed =
      run_until_crash ~path ~sync ~config ~txs ~lines ~ops
    in
    Failpoint.clear ();
    Alcotest.(check bool)
      (Printf.sprintf "%s: boundary %d crashes" name boundary)
      true crashed;
    Option.iter Journal.abandon journal;
    let recovered = Scenario.engine ~config () in
    match Engine.recover recovered ~path with
    | Error msg ->
        Alcotest.failf "%s: boundary %d: recovery failed: %s" name boundary
          msg
    | Ok report ->
        let reference = reference_for report.Engine.last_commit_seq in
        check_same_state
          ~msg:(Printf.sprintf "%s: boundary %d" name boundary)
          reference recovered
  done

let test_crash_recovery_per_commit () =
  crash_matrix ~name:"per-commit" ~sync:Journal.Per_commit ~txs:3 ~lines:5
    ~ops:2 ()

let test_crash_recovery_per_write () =
  crash_matrix ~name:"per-write" ~sync:Journal.Per_write ~txs:2 ~lines:4
    ~ops:2 ()

(* --------------------------- checkpoint/GC crash matrix (§4h bounded) *)

(* The checkpoint cycle (write ckpt atomically → seal the live segment →
   GC covered segments) adds seven crash sites to the journal's:
   [ckpt.write] (torn), [ckpt.fsync], [ckpt.rename], [ckpt.dirsync],
   [journal.seal.rename], [journal.seal.dirsync], [journal.gc.unlink] —
   plus [window.retire] inside the in-memory prefix retirement.  Crashing
   at every boundary of a checkpoint-every-commit workload, recovery from
   whatever files the crash left must land exactly on the last committed
   state, and must never need a segment GC already unlinked. *)

let segment_files path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".seg-" in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if String.length name > plen && String.sub name 0 plen = prefix
             then Some (Filename.concat dir name)
             else None)

let remove_chain path =
  remove_if_exists path;
  remove_if_exists (Checkpoint.path_for path);
  remove_if_exists (Checkpoint.path_for path ^ ".writing");
  List.iter remove_if_exists (segment_files path)

let run_ckpt_until_crash ?(cadence = `Commits) ~path ~config ~txs ~lines ~ops
    () =
  let engine = Scenario.engine ~config () in
  match Journal.create ~sync:Journal.Per_commit ~path () with
  | exception Failpoint.Crash _ -> (None, true)
  | journal -> (
      Engine.set_journal engine journal;
      (match cadence with
      | `Commits -> Engine.enable_checkpoints engine ~every_commits:1 ()
      | `Seconds ->
          (* A threshold below the monotonic clock's resolution: every
             commit boundary is due on the wall-clock cadence, so the
             crash sites match the commit-count matrix — reached through
             the Monotime arm of the cadence check. *)
          Engine.enable_checkpoints engine ~every_seconds:1e-9 ());
      match drive engine ~txs ~lines ~ops with
      | () -> (Some journal, false)
      | exception Failpoint.Crash _ -> (Some journal, true))

let test_checkpoint_crash_matrix () =
  let config =
    {
      Engine.default_config with
      Engine.max_rule_executions = 10_000;
      (* every line retires, so the checkpoint sites interleave with
         mid-transaction [window.retire] boundaries *)
      retire_in_tx = Some 1;
    }
  in
  let txs = 3 and lines = 5 and ops = 2 in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      remove_chain path)
  @@ fun () ->
  (* Pass 1: boundaries of the fault-free run. *)
  remove_chain path;
  Failpoint.arm ~seed:fault_seed ~after:max_int ();
  let journal, crashed =
    run_ckpt_until_crash ~path ~config ~txs ~lines ~ops ()
  in
  Alcotest.(check bool) "fault-free checkpoint run completes" false crashed;
  Option.iter Journal.close journal;
  let boundaries = Failpoint.total_hits () in
  Failpoint.clear ();
  Alcotest.(check bool) "checkpoint scenario has boundaries" true
    (boundaries > 0);
  (* Pass 2: crash at each boundary; recover from whatever is on disk. *)
  let references = Hashtbl.create 8 in
  let reference_for commits =
    match Hashtbl.find_opt references commits with
    | Some engine -> engine
    | None ->
        let engine =
          reference_after ~config ~seed:fault_seed ~txs:commits ~lines ~ops ()
        in
        Hashtbl.replace references commits engine;
        engine
  in
  let sites = Hashtbl.create 8 in
  let booted_from_ckpt = ref 0 in
  for boundary = 0 to boundaries - 1 do
    remove_chain path;
    Failpoint.arm ~seed:(fault_seed + boundary) ~after:boundary ();
    let journal, crashed =
      match run_ckpt_until_crash ~path ~config ~txs ~lines ~ops () with
      | r -> r
      | exception Failpoint.Crash site ->
          (* Crash escaping the driver (e.g. inside [Journal.create]). *)
          Hashtbl.replace sites site ();
          (None, true)
    in
    Failpoint.clear ();
    Alcotest.(check bool)
      (Printf.sprintf "checkpoint boundary %d crashes" boundary)
      true crashed;
    Option.iter Journal.abandon journal;
    let recovered = Scenario.engine ~config () in
    match Engine.recover recovered ~path with
    | Error msg ->
        Alcotest.failf "checkpoint boundary %d: recovery failed: %s" boundary
          msg
    | Ok report ->
        if report.Engine.booted_from_checkpoint <> None then
          incr booted_from_ckpt;
        (* O(delta): a checkpoint boot replays only the suffix. *)
        (match report.Engine.booted_from_checkpoint with
        | Some seq ->
            Alcotest.(check bool)
              (Printf.sprintf
                 "boundary %d: suffix past checkpoint %d only (replayed %d)"
                 boundary seq report.Engine.replayed_records)
              true
              (report.Engine.last_commit_seq >= seq)
        | None -> ());
        let reference = reference_for report.Engine.last_commit_seq in
        check_same_state
          ~msg:(Printf.sprintf "checkpoint boundary %d" boundary)
          reference recovered
  done;
  (* The matrix really exercised the new sites and the checkpoint boot
     path (run with --verbose to see per-site counts if this trips). *)
  Alcotest.(check bool) "some recovery booted from a checkpoint" true
    (!booted_from_ckpt > 0)

(* The wall-clock cadence ([--checkpoint-interval]) through the same
   matrix: with [every_seconds] below the clock's resolution every
   commit is due on the time cadence, so the crash sites are the
   commit-count matrix's — reached through the Monotime arm of the
   cadence check.  Recovery must be exactly as crash-safe. *)
let test_checkpoint_time_cadence_crash_matrix () =
  let config = Engine.default_config in
  let txs = 2 and lines = 4 and ops = 2 in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      remove_chain path)
  @@ fun () ->
  remove_chain path;
  (* Fault-free pass: the time cadence actually checkpoints. *)
  Failpoint.arm ~seed:fault_seed ~after:max_int ();
  let journal, crashed =
    run_ckpt_until_crash ~cadence:`Seconds ~path ~config ~txs ~lines ~ops ()
  in
  Alcotest.(check bool) "fault-free time-cadence run completes" false crashed;
  Option.iter Journal.close journal;
  let boundaries = Failpoint.total_hits () in
  Failpoint.clear ();
  (let recovered = Scenario.engine ~config () in
   match Engine.recover recovered ~path with
   | Error msg -> Alcotest.fail msg
   | Ok report ->
       Alcotest.(check bool) "time cadence wrote a checkpoint" true
         (report.Engine.booted_from_checkpoint <> None));
  (* Crash at every boundary; recovery lands on the committed prefix. *)
  let booted_from_ckpt = ref 0 in
  for boundary = 0 to boundaries - 1 do
    remove_chain path;
    Failpoint.arm ~seed:(fault_seed + boundary) ~after:boundary ();
    let journal, crashed =
      match
        run_ckpt_until_crash ~cadence:`Seconds ~path ~config ~txs ~lines ~ops
          ()
      with
      | r -> r
      | exception Failpoint.Crash _ -> (None, true)
    in
    Failpoint.clear ();
    Alcotest.(check bool)
      (Printf.sprintf "time-cadence boundary %d crashes" boundary)
      true crashed;
    Option.iter Journal.abandon journal;
    let recovered = Scenario.engine ~config () in
    match Engine.recover recovered ~path with
    | Error msg ->
        Alcotest.failf "time-cadence boundary %d: recovery failed: %s"
          boundary msg
    | Ok report ->
        if report.Engine.booted_from_checkpoint <> None then
          incr booted_from_ckpt;
        let reference =
          reference_after ~config ~seed:fault_seed
            ~txs:report.Engine.last_commit_seq ~lines ~ops ()
        in
        check_same_state
          ~msg:(Printf.sprintf "time-cadence boundary %d" boundary)
          reference recovered
  done;
  Alcotest.(check bool) "some time-cadence recovery booted from a checkpoint"
    true
    (!booted_from_ckpt > 0)

(* A crash between checkpoint+seal and the covered segments' unlink
   leaves both the checkpoint and the full chain behind: recovery must
   prefer the checkpoint (O(delta)) but land on the same state as a full
   replay would — and a chain whose covered segments DID unlink must
   recover without them. *)
let test_checkpoint_gc_unlink_crash () =
  let config = Engine.default_config in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      remove_chain path)
  @@ fun () ->
  remove_chain path;
  (* Fault-free reference run with checkpoints, counting boundaries. *)
  Failpoint.arm ~seed:fault_seed ~after:max_int ();
  let journal, crashed =
    run_ckpt_until_crash ~path ~config ~txs:3 ~lines:4 ~ops:2 ()
  in
  Alcotest.(check bool) "fault-free run completes" false crashed;
  Option.iter Journal.close journal;
  let boundaries = Failpoint.total_hits () in
  Failpoint.clear ();
  (* Crash at every boundary; whenever the site is the GC unlink, assert
     the checkpoint file is already durable and recovery works both with
     the leftover segments present and after finishing their removal. *)
  let unlink_crashes = ref 0 in
  for b = 0 to boundaries - 1 do
    remove_chain path;
    Failpoint.arm ~seed:fault_seed ~after:b ();
    let journal, crashed =
      run_ckpt_until_crash ~path ~config ~txs:3 ~lines:4 ~ops:2 ()
    in
    Failpoint.clear ();
    Alcotest.(check bool) (Printf.sprintf "boundary %d crashes" b) true
      crashed;
    Option.iter Journal.abandon journal;
    (* GC runs only after the seal has opened the fresh live file, so
       "the unlink finishes post-crash" is a reachable state only when
       the live file exists; a crash mid-seal leaves segments too, but
       there nothing was ever going to unlink them. *)
    let site_was_unlink = segment_files path <> [] && Sys.file_exists path in
    if site_was_unlink then begin
      (* Leftover covered segments: recovery with them present... *)
      let with_segments = Scenario.engine ~config () in
      (match Engine.recover with_segments ~path with
      | Error msg -> Alcotest.failf "boundary %d (segments left): %s" b msg
      | Ok _ -> ());
      (* ...and with the unlink completed post-crash agree exactly. *)
      (match Checkpoint.read_opt ~path:(Checkpoint.path_for path) with
      | Ok (Some ckpt) ->
          let covered seg =
            match Journal.read ~path:seg with
            | Ok r -> r.Journal.last_commit_seq <= ckpt.Checkpoint.commit_seq
            | Error _ -> false
          in
          let removable = List.filter covered (segment_files path) in
          if removable <> [] then begin
            incr unlink_crashes;
            List.iter remove_if_exists removable;
            let without = Scenario.engine ~config () in
            match Engine.recover without ~path with
            | Error msg ->
                Alcotest.failf "boundary %d (segments GC'd): %s" b msg
            | Ok _ ->
                check_same_state
                  ~msg:(Printf.sprintf "boundary %d: GC completion" b)
                  with_segments without
          end
      | Ok None | Error _ -> ())
    end
  done;
  Alcotest.(check bool) "covered-segment crashes exercised" true
    (!unlink_crashes >= 1)

(* ------------------------------------------------------------- abort *)

(* Abort ≡ the transaction never ran: state, generators and the
   behaviour of a follow-up transaction all coincide with an engine that
   only saw the committed prefix. *)
let test_abort_equiv_never_ran () =
  let aborted = Scenario.engine () and reference = Scenario.engine () in
  (* Both commit the same first transaction. *)
  drive aborted ~txs:1 ~lines:8 ~ops:3;
  drive reference ~txs:1 ~lines:8 ~ops:3;
  (* Only [aborted] runs a second transaction — including a rule and a
     timer defined mid-transaction — then aborts it. *)
  let prng = Prng.create ~seed:(fault_seed + 1) in
  Scenario.run_inventory_traffic prng aborted ~lines:8 ~ops_per_line:3;
  ignore (Engine.define_timer aborted ~name:"doomed" ~period_lines:2);
  ignore
    (Engine.define_exn aborted
       { Scenario.check_stock_qty with Rule.name = "doomedRule"; priority = 99 });
  Scenario.run_inventory_traffic prng aborted ~lines:4 ~ops_per_line:2;
  Engine.abort aborted;
  check_same_state ~msg:"abort" reference aborted;
  Alcotest.(check bool)
    "mid-tx rule dropped" true
    (Rule_table.find (Engine.rules aborted) "doomedRule" = None);
  Alcotest.(check (list string))
    "mid-tx timer dropped"
    (Engine.timer_names reference)
    (Engine.timer_names aborted);
  Alcotest.(check int)
    "abort counted" 1 (Engine.statistics aborted).Engine.aborts;
  (* The follow-up transaction behaves identically on both engines. *)
  drive ~seed:(fault_seed + 2) aborted ~txs:1 ~lines:8 ~ops:3;
  drive ~seed:(fault_seed + 2) reference ~txs:1 ~lines:8 ~ops:3;
  check_same_state ~msg:"post-abort transaction" reference aborted

let test_abort_qcheck =
  Gen.qcheck ~count:40 "abort ≡ never-ran on random traffic"
    QCheck.(triple (int_bound 10_000) (int_range 1 10) (int_range 1 4))
    (fun (seed, lines, ops) ->
      let aborted = Scenario.engine () and reference = Scenario.engine () in
      drive ~seed aborted ~txs:1 ~lines:4 ~ops:2;
      drive ~seed reference ~txs:1 ~lines:4 ~ops:2;
      let prng = Prng.create ~seed:(seed + 7) in
      Scenario.run_inventory_traffic prng aborted ~lines ~ops_per_line:ops;
      Engine.abort aborted;
      store_dump aborted = store_dump reference
      && event_log aborted = event_log reference
      && ts_probes aborted = ts_probes reference)

(* ------------------------------- posting lists / wake index rebuild *)

(* The type-indexed structures added for the indexed wake — per-type
   posting lists in the event base and the subscription-driven dirty set
   in the engine — are rebuilt, not journaled.  Regression: after an
   abort and after a crash-style recovery they must answer type-indexed
   queries exactly like a reference engine that only ever saw the
   committed prefix, and a follow-up transaction must trigger rules
   identically (a stale or empty wake index would silently under-fire). *)
let posting_dump engine =
  let eb = Engine.event_base engine in
  let upto = Event_base.probe_now eb in
  List.map
    (fun etype ->
      List.map Time.to_int
        (Event_base.timestamps_of_types_in eb ~types:[ etype ]
           ~after:Time.origin ~upto))
    Domain.all_event_types

let firing_counts engine =
  let s = Engine.statistics engine in
  (s.Engine.considerations, s.Engine.executions,
   s.Engine.trigger_stats.Trigger_support.fired)

let test_posting_lists_survive_abort_and_recovery () =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> remove_if_exists path) @@ fun () ->
  let engine = Scenario.engine () in
  Engine.set_journal engine (Journal.create ~path ());
  drive engine ~txs:2 ~lines:6 ~ops:3;
  (* An aborted transaction must leave no trace in the posting lists. *)
  let prng = Prng.create ~seed:(fault_seed + 3) in
  Scenario.run_inventory_traffic prng engine ~lines:6 ~ops_per_line:3;
  Engine.abort engine;
  let reference = reference_after ~seed:fault_seed ~txs:2 ~lines:6 ~ops:3 () in
  Alcotest.(check (list (list int)))
    "posting lists after abort" (posting_dump reference) (posting_dump engine);
  Option.iter Journal.close (Engine.journal engine);
  (* Crash-style recovery into a fresh engine: the posting lists and the
     wake subscriptions are rebuilt from the replayed log. *)
  let recovered = Scenario.engine () in
  (match Engine.recover recovered ~path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "two txs" 2 report.Engine.recovered_commits);
  check_same_state ~msg:"posting recovery" reference recovered;
  Alcotest.(check (list (list int)))
    "posting lists after recovery" (posting_dump reference)
    (posting_dump recovered);
  (* The follow-up transaction exercises the rebuilt wake index: the
     standard rules must consider and fire exactly as on the reference
     (both engines run the default indexed wake). *)
  let base_ref = firing_counts reference in
  let base_rec = firing_counts recovered in
  drive ~seed:(fault_seed + 4) reference ~txs:1 ~lines:8 ~ops:3;
  drive ~seed:(fault_seed + 4) recovered ~txs:1 ~lines:8 ~ops:3;
  let d (a, b, c) (a', b', c') = (a - a', b - b', c - c') in
  let pp (a, b, c) = Printf.sprintf "cons=%d exec=%d fired=%d" a b c in
  Alcotest.(check string)
    "post-recovery trigger behaviour"
    (pp (d (firing_counts reference) base_ref))
    (pp (d (firing_counts recovered) base_rec));
  check_same_state ~msg:"post-recovery transaction" reference recovered

(* --------------------------------------------------- block atomicity *)

(* A block whose Nth operation fails must leave no trace: store, event
   base and counters as if the line was never issued. *)
let test_failed_block_rolls_back () =
  let engine = Scenario.engine () in
  drive engine ~txs:1 ~lines:6 ~ops:3;
  let dump_before = store_dump engine in
  let log_before = event_log engine in
  let stats = Engine.statistics engine in
  let ops_before = stats.Engine.operations
  and evs_before = stats.Engine.events in
  (match
     Engine.execute_line engine
       [
         Domain.new_stock ~quantity:5 ~maxquantity:100 ~minquantity:0;
         Operation.Modify
           {
             oid = Ident.Oid.of_int 9999;
             attribute = "quantity";
             value = Value.Int 1;
           };
       ]
   with
  | Error (`Unknown_object _) -> ()
  | Ok () -> Alcotest.fail "expected unknown object"
  | Error e -> Alcotest.failf "unexpected error: %a" Engine.pp_error e);
  Alcotest.(check (list string))
    "store unchanged" dump_before (store_dump engine);
  Alcotest.(check string) "event base unchanged" log_before (event_log engine);
  let stats = Engine.statistics engine in
  Alcotest.(check int)
    "operations counter unwound" ops_before stats.Engine.operations;
  Alcotest.(check int) "events counter unwound" evs_before stats.Engine.events;
  Alcotest.(check bool)
    "rollback counted" true
    (stats.Engine.block_rollbacks > 0);
  (* The engine stays usable after the rollback. *)
  match
    Engine.execute_line engine
      [ Domain.new_stock ~quantity:7 ~maxquantity:100 ~minquantity:0 ]
  with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "engine wedged after rollback: %a" Engine.pp_error e

(* ------------------------------------------------ error-path hygiene *)

(* `Nontermination aborts cleanly: after the budget error the engine can
   be wound back to the committed prefix. *)
let test_nontermination_abortable () =
  let config = { Engine.default_config with Engine.max_rule_executions = 5 } in
  let make () =
    let engine = Engine.create ~config (Domain.schema ()) in
    (* create(stock) -> create another stock: an unbounded cascade. *)
    ignore
      (Engine.define_exn engine
         {
           Rule.name = "runaway";
           target = None;
           event = Expr_parse.parse_exn "create(stock)";
           condition = [];
           action =
             [
               Action.A_create
                 {
                   class_name = "stock";
                   attrs =
                     [
                       ("quantity", Query.Term (Query.Const (Value.Int 1)));
                       ("maxquantity", Query.Term (Query.Const (Value.Int 10)));
                       ("minquantity", Query.Term (Query.Const (Value.Int 0)));
                     ];
                   bind = None;
                 };
             ];
           coupling = Rule.Immediate;
           consumption = Rule.Consuming;
           priority = 1;
         });
    engine
  in
  let engine = make () and reference = make () in
  (match
     Engine.execute_line engine
       [ Domain.new_stock ~quantity:1 ~maxquantity:10 ~minquantity:0 ]
   with
  | Error (`Nontermination _) -> ()
  | Ok () -> Alcotest.fail "expected nontermination"
  | Error e -> Alcotest.failf "unexpected: %a" Engine.pp_error e);
  Engine.abort engine;
  check_same_state ~msg:"nontermination then abort" reference engine

(* Duplicate-timer and invalid-operation rejections leave every counter
   that mirrors state untouched. *)
let test_error_paths_keep_stats () =
  let engine = Scenario.engine () in
  ignore (Engine.define_timer engine ~name:"tick" ~period_lines:3);
  drive engine ~txs:1 ~lines:5 ~ops:2;
  let snap () =
    let s = Engine.statistics engine in
    (s.Engine.operations, s.Engine.events, s.Engine.executions)
  in
  let ops0, evs0, exec0 = snap () in
  let timers0 = Engine.timer_names engine in
  (match Engine.define_timer engine ~name:"tick" ~period_lines:5 with
  | _ -> Alcotest.fail "duplicate timer accepted"
  | exception Invalid_argument _ -> ());
  (match Engine.define_timer engine ~name:"bad" ~period_lines:0 with
  | _ -> Alcotest.fail "non-positive period accepted"
  | exception Invalid_argument _ -> ());
  (match
     Engine.execute_line engine
       [
         Operation.Modify
           {
             oid = Ident.Oid.of_int 424242;
             attribute = "quantity";
             value = Value.Int 1;
           };
       ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown object accepted");
  let ops1, evs1, exec1 = snap () in
  Alcotest.(check int) "operations stable" ops0 ops1;
  Alcotest.(check int) "events stable" evs0 evs1;
  Alcotest.(check int) "executions stable" exec0 exec1;
  Alcotest.(check (list string))
    "timers unchanged" timers0 (Engine.timer_names engine);
  (* And the engine still commits. *)
  drive ~seed:(fault_seed + 9) engine ~txs:1 ~lines:3 ~ops:2

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc32;
    Alcotest.test_case "journal roundtrip (commit/abort markers)" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail_tolerated;
    Alcotest.test_case "foreign/missing journals rejected" `Quick
      test_foreign_file_rejected;
    Alcotest.test_case "clean recovery reproduces committed state" `Quick
      test_recover_clean;
    Alcotest.test_case "uncommitted tail dropped on recovery" `Quick
      test_recover_uncommitted_dropped;
    Alcotest.test_case "crash recovery at every boundary (per-commit)" `Quick
      test_crash_recovery_per_commit;
    Alcotest.test_case "crash recovery at every boundary (per-write)" `Quick
      test_crash_recovery_per_write;
    Alcotest.test_case "checkpoint/seal/GC crash at every boundary" `Quick
      test_checkpoint_crash_matrix;
    Alcotest.test_case "checkpoint time cadence crash at every boundary"
      `Quick test_checkpoint_time_cadence_crash_matrix;
    Alcotest.test_case "crash between checkpoint and segment unlink" `Quick
      test_checkpoint_gc_unlink_crash;
    Alcotest.test_case "abort ≡ never ran (incl. follow-up tx)" `Quick
      test_abort_equiv_never_ran;
    Alcotest.test_case "posting lists + wake survive abort and recovery"
      `Quick test_posting_lists_survive_abort_and_recovery;
    test_abort_qcheck;
    Alcotest.test_case "failed block leaves no trace" `Quick
      test_failed_block_rolls_back;
    Alcotest.test_case "nontermination leaves the engine abortable" `Quick
      test_nontermination_abortable;
    Alcotest.test_case "rejected inputs keep stats consistent" `Quick
      test_error_paths_keep_stats;
  ]
