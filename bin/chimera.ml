(* The chimera CLI: run rule scripts, evaluate event expressions against
   inline streams, inspect V(E) analyses, or start a small REPL.

     chimera run script.ch          execute a script file
     chimera stats script.ch        execute and report the obs snapshot
     chimera eval "A < B" "A B"     ts timeline of an expression
     chimera analyze "A + -B"       static V(E) analysis
     chimera serve --port 7877      network ingestion server
     chimera loadgen --port 7877    load generator against a server
     chimera repl                   interactive statements *)

open Core
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every subcommand body runs under this guard so an engine-level failure
   surfaces as an ordinary cmdliner error (exit code 1, message on
   stderr) instead of an escaping exception (exit 125): unreadable paths
   from [read_file]/[Journal.create] raise [Sys_error], malformed
   numbers raise [Failure], stream items raise [Invalid_argument]. *)
let protected f =
  try f () with
  | Sys_error msg | Failure msg | Invalid_argument msg -> `Error (false, msg)

(* ------------------------------------------------------------- run *)

let fsync_policy_conv =
  let parse = function
    | "write" -> Ok Journal.Per_write
    | "commit" -> Ok Journal.Per_commit
    | "never" -> Ok Journal.Never
    | s -> Error (`Msg (Printf.sprintf "unknown fsync policy %s (write|commit|never)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Journal.Per_write -> "write"
      | Journal.Per_commit -> "commit"
      | Journal.Never -> "never")
  in
  Arg.conv (parse, print)

let fsync_arg =
  Arg.(
    value
    & opt fsync_policy_conv Journal.Per_commit
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal fsync policy: $(b,write) (every block), $(b,commit) \
           (markers only, the default) or $(b,never).")

let print_stats interp =
  let stats = Engine.statistics (Interp.engine interp) in
  Printf.printf
    "-- %d line(s), %d event(s), %d consideration(s), %d execution(s)\n"
    stats.Engine.lines stats.Engine.events stats.Engine.considerations
    stats.Engine.executions;
  (match Engine.journal (Interp.engine interp) with
  | None -> ()
  | Some j ->
      let c = Journal.counters j in
      Printf.printf
        "-- journal: %d record(s), %d commit(s), %d fsync(s), %d rotation(s), %d byte(s) -> %s\n"
        c.Journal.appends c.Journal.commits c.Journal.syncs
        c.Journal.rotations c.Journal.bytes_written (Journal.path j));
  Printf.printf "-- %s\n"
    (Fmt.str "%a" Event_stats.pp
       (Event_stats.of_event_base (Engine.event_base (Interp.engine interp))))

(* --trace without a value records spans into the ring and turns on the
   debug log; --trace=stderr streams spans to stderr; any other value is
   a JSONL file path.  --metrics enables the counters and prints the
   snapshot after the run. *)
let setup_obs ~metrics ~trace =
  if metrics || trace <> None then Obs.set_enabled true;
  match trace with
  | None | Some "" -> ()
  | Some "1" ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
  | Some "stderr" -> Obs.Sink.attach (Obs.Sink.stderr ())
  | Some path -> Obs.Sink.attach (Obs.Sink.jsonl ~path)

let finish_obs ~metrics ~trace =
  if trace <> None then Obs.publish ();
  if metrics then Fmt.pr "%a@." Obs.pp_snapshot (Obs.snapshot ())

(* The wake strategy of the Trigger Support: indexed (the default) or the
   legacy sweep, kept selectable for A/B comparison. *)
let wake_arg =
  let mode =
    Arg.enum
      [
        ("indexed", Trigger_support.Indexed); ("sweep", Trigger_support.Sweep);
      ]
  in
  Arg.(
    value
    & opt mode Trigger_support.Indexed
    & info [ "wake" ] ~docv:"MODE"
        ~doc:
          "Trigger wake strategy.  $(b,indexed) (the default) wakes only \
           the rules subscribed, via their V(E), to an event type that \
           actually arrived; $(b,sweep) visits every rule after every \
           block — the legacy path, kept for A/B comparison.")

let config_of_wake wake =
  {
    Engine.default_config with
    Engine.trigger = { Trigger_support.default_config with Trigger_support.wake };
  }

let run_script trace metrics journal_path fsync checkpoint_every wake path =
 protected @@ fun () ->
  setup_obs ~metrics ~trace;
  let interp = Interp.create ~config:(config_of_wake wake) () in
  let journal =
    Option.map
      (fun path ->
        let j = Journal.create ~sync:fsync ~path () in
        Engine.set_journal (Interp.engine interp) j;
        j)
      journal_path
  in
  (match (journal, checkpoint_every) with
  | None, Some _ -> invalid_arg "--checkpoint-every requires --journal"
  | Some _, Some every_commits ->
      Engine.enable_checkpoints (Interp.engine interp) ~every_commits ()
  | _, None -> ());
  let finish result =
    Option.iter Journal.close journal;
    finish_obs ~metrics ~trace;
    result
  in
  match Interp.run_string interp (read_file path) with
  | Ok () ->
      print_string (Interp.output interp);
      print_stats interp;
      finish (`Ok ())
  | Error msg ->
      print_string (Interp.output interp);
      finish (`Error (false, msg))

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Write-ahead journal file: every transaction is made durable and \
           $(b,chimera recover) can rebuild the state after a crash.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Bounded state: every $(i,N) commits write a checkpoint beside \
           the journal, seal the live segment, and GC the sealed segments \
           the checkpoint covers — recovery boots from the checkpoint \
           plus the O(delta) journal suffix.  Requires $(b,--journal).")

let checkpoint_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "checkpoint-interval" ] ~docv:"SECONDS"
        ~doc:
          "Time-based checkpoint cadence: a checkpoint cycle runs at the \
           first commit boundary at least $(i,SECONDS) after the last one \
           (monotonic clock).  Combinable with $(b,--checkpoint-every) — \
           whichever cadence is due first fires.  Requires $(b,--journal).")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "1") (some string) None
    & info [ "trace" ] ~docv:"TARGET"
        ~doc:
          "Record trace spans.  Without a value also logs \
           trigger/consideration decisions; $(b,--trace=stderr) streams \
           spans to stderr; any other value is a JSONL file the spans and \
           the final metrics snapshot are written to.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Enable the metrics registry and print its snapshot at the end.")

let run_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file to execute.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a Chimera rule script")
    Term.(
      ret
        (const run_script $ trace_arg $ metrics_arg $ journal_arg $ fsync_arg
        $ checkpoint_every_arg $ wake_arg $ path))

(* ----------------------------------------------------------- stats *)

(* Like [run] with everything enabled: executes the script under metrics
   and span recording, then reports the snapshot — the quick profiling
   entry point. *)
let stats_script wake path =
 protected @@ fun () ->
  Obs.set_enabled true;
  let interp = Interp.create ~config:(config_of_wake wake) () in
  match Interp.run_string interp (read_file path) with
  | Error msg ->
      print_string (Interp.output interp);
      `Error (false, msg)
  | Ok () ->
      print_string (Interp.output interp);
      Fmt.pr "%a@." Obs.pp_snapshot (Obs.snapshot ());
      let spans = Obs.Trace.recorded () in
      Fmt.pr "@.%d span(s) in the trace ring (capacity %d)@."
        (List.length spans)
        (Obs.Trace.ring_capacity ());
      `Ok ()

let stats_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT" ~doc:"Script file to execute.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Executes the script with the metrics registry and span recording \
         enabled, then reports the snapshot and the number of spans in \
         the trace ring.";
      `S "CALCULUS COUNTERS";
      `P
        "$(b,ts.evals) / $(b,ts.eval_ns): top-level ts evaluations of \
         the Section-4 evaluator (one per rule probe) and their latency. \
         Rule probes and condition event formulas recompute ts from the \
         event-base indexes every time: the engine keeps no evaluation \
         cache.";
      `S "WAKE AND POSTING-LIST COUNTERS";
      `P
        "$(b,trigger.woken) / $(b,trigger.idle): rules drained from the \
         dirty set at a wake vs. rules the wake never visited.  Under \
         $(b,--wake=indexed) the woken count tracks the rules an arrived \
         event type actually subscribes, so idle grows with rule count \
         while woken does not; under $(b,--wake=sweep) every rule is \
         visited and both counters stay 0.";
      `P
        "$(b,eventbase.posting_appends) / $(b,eventbase.posting_probes): \
         per-type posting-list maintenance on record vs. binary-search \
         probes serving type-restricted queries; \
         $(b,eventbase.posting_lists) gauges the distinct indexed types.";
      `P
        "$(b,trigger.checks) / $(b,trigger.probes) / $(b,trigger.skipped): \
         per-rule trigger checks, ts probe instants, and checks skipped \
         via V(E).  The probes-per-event ratio is the headline figure of \
         the indexed wake (see bench e11).";
      `P
        "$(b,gc.floor): the commit sequence the last checkpoint cycle \
         retired journal segments at or below (bounded-state runs).  Under \
         $(b,chimera serve) the per-shard $(b,repl.ack_floor.shard)N \
         gauges report the lowest commit a replication follower has not \
         yet durably acked (-1 with no followers attached); both floors \
         also appear in the $(b,STATS) verb's bounds line.";
      `P
        "$(b,sub.notifies) / $(b,sub.gaps) / $(b,sub.dropped): live \
         subscription pushes under $(b,chimera serve) — $(b,NOTIFY) \
         frames written to subscribers, $(b,NOTIFY_GAP) frames emitted \
         when the per-connection $(b,--notify-queue) bound sheds \
         backlog, and the individual notifies those gaps account as \
         shed.  $(b,sub.active) gauges the subscriptions currently \
         registered across all sessions.  The same figures appear on \
         the $(b,STATS) verb's $(b,subs:) line.";
    ]
  in
  Cmd.v
    (Cmd.info "stats" ~man
       ~doc:"Execute a script under full observability and report the snapshot")
    Term.(ret (const stats_script $ wake_arg $ path))

(* --------------------------------------------------------- recover *)

(* Replays a script's definitions (classes, triggers, timers) without
   executing any transaction line — the shared prologue of [recover] and
   [checkpoint], whose journals were recorded under those definitions. *)
let interp_with_definitions script_path =
  match Lang_parser.parse (read_file script_path) with
  | Error msg -> Error msg
  | Ok script -> (
      let interp = Interp.create () in
      let definitions =
        List.filter
          (function
            | Lang_ast.Define_class _ | Lang_ast.Define_trigger _
            | Lang_ast.Define_timer _ ->
                true
            | _ -> false)
          script
      in
      let defined =
        List.fold_left
          (fun acc stmt ->
            match acc with
            | Error _ -> acc
            | Ok () -> Interp.run_statement interp stmt)
          (Ok ()) definitions
      in
      match defined with Error msg -> Error msg | Ok () -> Ok interp)

let recover_from_journal journal_path script_path =
 protected @@ fun () ->
  match interp_with_definitions script_path with
  | Error msg -> `Error (false, msg)
  | Ok interp -> (
          match Engine.recover (Interp.engine interp) ~path:journal_path with
          | Error msg -> `Error (false, msg)
          | Ok report ->
              Printf.printf
                "recovered %d transaction(s) (last commit seq %d), %d record(s)\n"
                report.Engine.recovered_commits report.Engine.last_commit_seq
                report.Engine.recovered_entries;
              (match report.Engine.booted_from_checkpoint with
              | None -> ()
              | Some seq ->
                  Printf.printf
                    "booted from checkpoint at commit seq %d; replayed %d \
                     suffix record(s)%s\n"
                    seq report.Engine.replayed_records
                    (match report.Engine.first_segment with
                    | Some n when n > 0 ->
                        Printf.sprintf
                          " (chain starts at segment %d, older segments GC'd)"
                          n
                    | _ -> ""));
              if report.Engine.dropped_entries > 0 || report.Engine.dropped_bytes > 0
              then
                Printf.printf
                  "dropped %d uncommitted record(s) and %d torn byte(s)\n"
                  report.Engine.dropped_entries report.Engine.dropped_bytes;
              let store = Engine.store (Interp.engine interp) in
              Printf.printf "store: %d live object(s)\n"
                (Object_store.count_live store);
              List.iter
                (fun (oid, class_name, deleted, _attrs) ->
                  if not deleted then
                    Printf.printf "  %s\n"
                      (Fmt.str "%a" (Object_store.pp_object store) oid)
                  else
                    Printf.printf "  o%d: deleted (%s)\n"
                      (Ident.Oid.to_int oid) class_name)
                (Object_store.dump_objects store);
              Printf.printf "events: %d occurrence(s) in the log\n"
                (Event_base.size (Engine.event_base (Interp.engine interp)));
              `Ok ())

let script_defs_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"SCRIPT"
        ~doc:
          "The script whose definitions (classes, triggers, timers) the \
           journal was recorded under; its transaction lines are not \
           executed.")

let recover_cmd =
  let journal =
    (* [string], not [file]: the live file may be freshly sealed away, and
       a GC'd chain legally starts past segment 0 — [read_chain] decides
       what is tolerable, not the argument parser. *)
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Journal path written by $(b,run --journal) (the head of its \
             sealed-segment chain).")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild the state after the last committed transaction from a journal")
    Term.(ret (const recover_from_journal $ journal $ script_defs_arg))

(* ------------------------------------------------------- checkpoint *)

(* The offline checkpoint: recover the committed state from the chain,
   write a checkpoint covering it, then GC the sealed segments it covers
   (ascending, so a failure can only shorten the chain from the front —
   never punch a hole).  The live file stays: later appends land there,
   and recovery filters its already-covered records by commit sequence. *)
let checkpoint_journal journal_path script_path =
 protected @@ fun () ->
  match interp_with_definitions script_path with
  | Error msg -> `Error (false, msg)
  | Ok interp -> (
      let engine = Interp.engine interp in
      match Engine.recover engine ~path:journal_path with
      | Error msg -> `Error (false, msg)
      | Ok report ->
          let ckpt =
            {
              Checkpoint.commit_seq = report.Engine.last_commit_seq;
              entries = Engine.checkpoint_records engine;
            }
          in
          let ckpt_path = Checkpoint.path_for journal_path in
          Checkpoint.write ~path:ckpt_path ckpt;
          Printf.printf
            "checkpoint at commit seq %d (%d record(s)) -> %s\n"
            ckpt.Checkpoint.commit_seq
            (List.length ckpt.Checkpoint.entries)
            ckpt_path;
          let dir = Filename.dirname journal_path in
          let prefix = Filename.basename journal_path ^ ".seg-" in
          let plen = String.length prefix in
          let segments =
            (match Sys.readdir dir with
            | exception Sys_error _ -> []
            | names ->
                Array.to_list names
                |> List.filter_map (fun name ->
                       if
                         String.length name > plen
                         && String.sub name 0 plen = prefix
                       then
                         match
                           int_of_string_opt
                             (String.sub name plen (String.length name - plen))
                         with
                         | Some seq -> Some (seq, Filename.concat dir name)
                         | None -> None
                       else None))
            |> List.sort compare
          in
          let removed = ref 0 in
          (try
             List.iter
               (fun (_, seg) ->
                 match Journal.read ~path:seg with
                 | Ok r when r.Journal.last_commit_seq <= ckpt.Checkpoint.commit_seq
                   ->
                     Sys.remove seg;
                     incr removed
                 | _ -> raise Exit)
               segments
           with Exit -> ());
          if !removed > 0 then
            Printf.printf "GC'd %d covered segment(s)\n" !removed;
          `Ok ())

let checkpoint_cmd =
  let journal =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:"Journal path to checkpoint (the head of its chain).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Recovers the committed state from the journal chain (checkpoint \
         plus suffix when one already exists), atomically writes a fresh \
         checkpoint beside the journal covering its last committed \
         transaction, and unlinks the sealed segments the checkpoint \
         covers.  The next $(b,chimera recover) boots from the checkpoint \
         and replays only transactions journaled after it.";
    ]
  in
  Cmd.v
    (Cmd.info "checkpoint" ~man
       ~doc:"Write a checkpoint beside a journal and GC the covered segments")
    Term.(ret (const checkpoint_journal $ journal $ script_defs_arg))

(* ------------------------------------------------------------ eval *)

let parse_stream s =
  let items =
    List.filter (fun x -> x <> "") (String.split_on_char ' ' (String.trim s))
  in
  List.map
    (fun item ->
      match String.split_on_char '@' item with
      | [ name ] -> (name, 1)
      | [ name; obj ] -> (name, int_of_string obj)
      | _ -> invalid_arg ("cannot parse stream item " ^ item))
    items

let eval_expression expr_src stream_src =
 protected @@ fun () ->
  match Expr_parse.parse expr_src with
  | Error msg -> `Error (false, msg)
  | Ok expr ->
      let eb = Event_base.create () in
      let report label =
        let at = Event_base.probe_now eb in
        let env = Ts.env eb ~window:(Window.all ~upto:at) in
        let v = Ts.ts env ~at expr in
        Printf.printf "%-24s ts=%-6d %s\n" label v
          (if v > 0 then Printf.sprintf "ACTIVE since t%d" v else "inactive")
      in
      report "(start)";
      List.iter
        (fun (name, obj) ->
          let etype =
            match Event_type.of_string name with
            | Ok t -> t
            | Error _ -> Event_type.external_ ~name ~class_name:""
          in
          ignore (Event_base.record eb ~etype ~oid:(Ident.Oid.of_int obj));
          report (Printf.sprintf "%s@o%d" name obj))
        (parse_stream stream_src);
      `Ok ()

let eval_cmd =
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc:"Event expression.")
  in
  let stream =
    Arg.(value & pos 1 string "" & info [] ~docv:"STREAM" ~doc:"Whitespace-separated name[@obj] occurrences.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an event expression over a stream")
    Term.(ret (const eval_expression $ expr $ stream))

(* --------------------------------------------------------- analyze *)

let analyze_expression expr_src =
  match Expr_parse.parse expr_src with
  | Error msg -> `Error (false, msg)
  | Ok expr ->
      Printf.printf "expression:      %s\n" (Expr.to_string expr);
      Printf.printf "size/depth:      %d/%d\n" (Expr.size expr) (Expr.depth expr);
      Printf.printf "regular:         %b\n" (Expr.is_regular expr);
      (let n = Normal_form.nnf expr in
       if not (Expr.equal n expr) then
         Printf.printf "negation NF:     %s\n" (Expr.to_string n));
      Printf.printf "\n%s\n" (Fmt.str "%a" Derive.pp_trace (Derive.derive expr));
      Printf.printf "V(E) = %s\n" (Simplify.to_string (Simplify.v_of_expr expr));
      let relevance = Relevance.of_expr expr in
      Printf.printf "always relevant: %b\n" (Relevance.always_relevant relevance);
      `Ok ()

let analyze_cmd =
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc:"Event expression.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static V(E) analysis of an event expression")
    Term.(ret (const analyze_expression $ expr))

(* ----------------------------------------------------------- graph *)

let graph_script path =
 protected @@ fun () ->
  match Lang_parser.parse (read_file path) with
  | Error msg -> `Error (false, msg)
  | Ok script ->
      let specs =
        List.filter_map
          (function Lang_ast.Define_trigger spec -> Some spec | _ -> None)
          script
      in
      if specs = [] then `Error (false, "script defines no triggers")
      else begin
        Printf.printf "triggering graph (%d rules):\n" (List.length specs);
        print_string
          (Fmt.str "%a" Analysis.pp_graph (Analysis.triggering_graph specs));
        (match Analysis.potential_cycles specs with
        | [] -> print_endline "termination: PROVED (acyclic triggering graph)"
        | cycles ->
            print_endline "termination: NOT PROVED - potential cycles:";
            List.iter
              (fun cycle ->
                Printf.printf "  {%s}\n" (String.concat ", " cycle))
              cycles);
        `Ok ()
      end

let graph_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file to analyze.")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Triggering graph and termination check of a script's rules")
    Term.(ret (const graph_script $ path))

(* ----------------------------------------------------------- serve *)

let parse_follow = function
  | None -> Ok None
  | Some spec -> (
      match String.rindex_opt spec ':' with
      | None -> Error (Printf.sprintf "bad --follow %S: expected HOST:PORT" spec)
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when host <> "" && p > 0 && p < 65536 ->
              Ok (Some (host, p))
          | _ ->
              Error
                (Printf.sprintf "bad --follow %S: expected HOST:PORT" spec)))

let serve trace metrics host port engines domains journal_dir fsync
    checkpoint_every checkpoint_interval script max_conns max_frame
    max_pending idle_timeout notify_queue follow repl_async =
 protected @@ fun () ->
  if notify_queue < 1 then
    `Error (false, "--notify-queue must be at least 1")
  else
  match parse_follow follow with
  | Error msg -> `Error (false, msg)
  | Ok follow ->
  setup_obs ~metrics ~trace;
  let boot_script = Option.map read_file script in
  let config =
    {
      Server.default_config with
      host;
      port;
      engines;
      domains;
      journal_dir;
      fsync;
      boot_script;
      max_conns;
      max_frame;
      max_pending;
      idle_timeout;
      notify_queue;
      follow;
      repl_sync = not repl_async;
      checkpoint_every;
      checkpoint_interval;
    }
  in
  match Server.create config with
  | Error msg -> `Error (false, msg)
  | Ok server ->
      Server.install_signal_handlers server;
      let running_domains =
        Session.Manager.domains (Server.manager server)
      in
      Printf.printf
        "chimera serve: listening on %s:%d (%d engine shard(s), %s%s%s)\n%!"
        host (Server.port server) engines
        (match running_domains with
        | 0 -> "inline on the reactor thread"
        | n -> Printf.sprintf "%d worker domain(s)" n)
        (match journal_dir with
        | None -> ""
        | Some dir -> Printf.sprintf ", journals in %s" dir)
        (match follow with
        | None -> ""
        | Some (h, p) -> Printf.sprintf ", standby following %s:%d" h p);
      Server.run server;
      finish_obs ~metrics ~trace;
      Printf.printf "chimera serve: drained cleanly\n";
      `Ok ()

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let serve_cmd =
  let port =
    Arg.(
      value
      & opt int Server.default_config.Server.port
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; $(b,0) binds an ephemeral port.")
  in
  let engines =
    Arg.(
      value
      & opt int 1
      & info [ "engines" ] ~docv:"N"
          ~doc:
            "Independent engine shards; each session is pinned to the shard \
             its id hashes to and transactions serialize per shard.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"M"
          ~doc:
            "Worker domains executing the engine shards (shard $(i,i) \
             runs on domain $(i,i) mod $(i,M)).  Defaults to one domain \
             per shard; $(b,0) runs every shard inline on the reactor \
             thread (the pre-multicore behaviour).")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Directory for the per-shard write-ahead journals \
             ($(i,DIR)/shard-$(i,N).journal), each replayable with \
             $(b,chimera recover).")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Boot script (class, trigger and timer definitions) executed \
             and committed on every shard before the first accept.")
  in
  let max_conns =
    Arg.(
      value
      & opt int Server.default_config.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Connection admission cap; further accepts get $(b,ERR busy).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Server.default_config.Server.max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Frame payload cap; larger frames close the connection.")
  in
  let max_pending =
    Arg.(
      value
      & opt int Server.default_config.Server.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Per-session bound on commands queued behind a busy shard.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float Server.default_config.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close sessions idle this long; $(b,0) disables.")
  in
  let notify_queue =
    Arg.(
      value
      & opt int Server.default_config.Server.notify_queue
      & info [ "notify-queue" ] ~docv:"N"
          ~doc:
            "Slow-consumer bound for live subscriptions: at most $(i,N) \
             $(b,NOTIFY) pushes wait per connection; beyond it the \
             oldest is shed and accounted to that subscription's next \
             $(b,NOTIFY_GAP) frame, so subscribers see every committed \
             activation either delivered or explicitly gapped.")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"HOST:PORT"
          ~doc:
            "Run as a warm standby of the primary at $(i,HOST:PORT): tail \
             its journal stream, apply committed transactions, refuse \
             writes with $(b,ERR standby), and promote to primary on \
             SIGUSR1 (or a $(b,PROMOTE) frame).  Requires $(b,--journal).")
  in
  let repl_async =
    Arg.(
      value & flag
      & info [ "repl-async" ]
          ~doc:
            "Ship the journal stream to followers asynchronously: commit \
             replies return without waiting for follower acknowledgements \
             (faster, but the freshest acked commits can be lost with the \
             primary).  The default is semi-synchronous.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves the engine over TCP with the length-prefixed frame protocol \
         (HELLO, LINE, COMMIT, ABORT, STATS, PING, QUIT).  SIGTERM and \
         SIGINT drain gracefully: accepts stop, lines already received \
         finish, clients get $(b,ERR shutdown), journals flush, and the \
         process exits 0.";
      `P
        "Sessions that negotiate the $(b,sub) HELLO feature can register \
         live subscriptions: $(b,SUB <id> [BIN] ON <event-expr> [DO \
         at-bindings]) compiles an ad-hoc composite-event rule scoped to \
         the connection, $(b,UNSUB <id>) drops it, and every committed \
         activation is pushed asynchronously as a $(b,NOTIFY) frame (or \
         accounted by a $(b,NOTIFY_GAP) when $(b,--notify-queue) sheds \
         backlog), in commit order per subscription.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man ~doc:"Serve the engine over TCP")
    Term.(
      ret
        (const serve $ trace_arg $ metrics_arg $ host_arg $ port $ engines
        $ domains $ journal_dir $ fsync_arg $ checkpoint_every_arg
        $ checkpoint_interval_arg $ script $ max_conns $ max_frame
        $ max_pending $ idle_timeout $ notify_queue $ follow $ repl_async))

(* --------------------------------------------------------- loadgen *)

let loadgen host port conns lines line commit_every pipeline binary events
    batch etype subscribe reconnect retry_max retry_base retry_cap seed =
 protected @@ fun () ->
  let config =
    {
      Loadgen.default_config with
      host;
      port;
      conns;
      lines;
      line;
      commit_every;
      pipeline;
      binary;
      events;
      batch;
      etype;
      subscribe;
      reconnect;
      retry_max;
      retry_base;
      retry_cap;
      seed;
    }
  in
  match Loadgen.run config with
  | Error msg -> `Error (false, msg)
  | Ok report ->
      Fmt.pr "%a@." Loadgen.pp_report report;
      if report.Loadgen.errors > 0 then
        `Error
          (false, Printf.sprintf "%d protocol error(s)" report.Loadgen.errors)
      else `Ok ()

let loadgen_cmd =
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Port of the server to drive.")
  in
  let conns =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.conns
      & info [ "conns" ] ~docv:"C" ~doc:"Concurrent connections.")
  in
  let lines =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.lines
      & info [ "lines" ] ~docv:"L" ~doc:"Transaction lines per connection.")
  in
  let line =
    Arg.(
      value
      & opt string Loadgen.default_config.Loadgen.line
      & info [ "line" ] ~docv:"TEXT"
          ~doc:"Rule-language text every LINE frame carries.")
  in
  let commit_every =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.commit_every
      & info [ "commit-every" ] ~docv:"N" ~doc:"Commit every $(i,N) events.")
  in
  let pipeline =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.pipeline
      & info [ "pipeline" ] ~docv:"DEPTH"
          ~doc:
            "Frames in flight per session (default $(b,1): strict \
             ping-pong).  The server's HELLO $(b,window) token is the \
             useful maximum.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "Send binary EVENT/BATCH frames instead of LINE text: one \
             $(b,ETYPE) announcement per session, then fixed-width \
             records — the text parser is skipped entirely.")
  in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Send text $(b,EVENT <etype> <oid>) frames instead of LINE: \
             the same engine work as $(b,--binary) but through the text \
             parser — the apples-to-apples baseline.")
  in
  let batch =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.batch
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Records per binary frame (default $(b,1): EVENT frames; \
             above 1: BATCH frames, one reply each).  Ignored without \
             $(b,--binary).")
  in
  let etype =
    Arg.(
      value
      & opt string Loadgen.default_config.Loadgen.etype
      & info [ "etype" ] ~docv:"NAME"
          ~doc:"Event-type name binary records carry (announced as id 0).")
  in
  let subscribe =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.subscribe
      & info [ "subscribe" ] ~docv:"S"
          ~doc:
            "Extra subscriber connections: each registers one live \
             subscription on the event type before any ingester sends \
             work, then measures the push side — notify throughput, gap \
             accounting, and trigger-to-notify latency (every ingested \
             oid is its send time in nanoseconds).  Requires \
             $(b,--events) or $(b,--binary).")
  in
  let reconnect =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "Ride out dropped connections: back off with jitter, \
             reconnect, and resend the uncommitted lines (a failover \
             drill's client).  Without it any mid-run failure is a hard \
             error.")
  in
  let retry_max =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.retry_max
      & info [ "retry-max" ] ~docv:"N"
          ~doc:"Consecutive failed connects tolerated before giving up.")
  in
  let retry_base =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.retry_base
      & info [ "retry-base" ] ~docv:"SECONDS"
          ~doc:"First backoff delay; doubles up to $(b,--retry-cap).")
  in
  let retry_cap =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.retry_cap
      & info [ "retry-cap" ] ~docv:"SECONDS"
          ~doc:"Backoff saturation bound.")
  in
  let seed =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Backoff jitter PRNG seed (connection $(i,i) uses \
                $(i,SEED+i)).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running server with concurrent protocol sessions")
    Term.(
      ret
        (const loadgen $ host_arg $ port $ conns $ lines $ line $ commit_every
       $ pipeline $ binary $ events $ batch $ etype $ subscribe $ reconnect
       $ retry_max $ retry_base $ retry_cap $ seed))

(* ------------------------------------------------------------ repl *)

let repl () =
  let interp = Interp.create () in
  print_endline "Chimera composite-events REPL; ';'-terminated statements, ctrl-d to quit.";
  let buffer = Buffer.create 128 in
  (try
     while true do
       print_string (if Buffer.length buffer = 0 then "chimera> " else "   ...> ");
       let line = read_line () in
       Buffer.add_string buffer line;
       Buffer.add_char buffer '\n';
       if String.contains line ';' then begin
         let src = Buffer.contents buffer in
         Buffer.clear buffer;
         (match Interp.run_string interp src with
         | Ok () -> ()
         | Error msg -> Printf.printf "error: %s\n" msg);
         print_string (Interp.output interp);
         Interp.clear_output interp
       end
     done
   with End_of_file -> print_newline ());
  `Ok ()

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive session") Term.(ret (const repl $ const ()))

let main_cmd =
  let doc = "Composite events in Chimera (EDBT 1996) - reproduction CLI" in
  Cmd.group (Cmd.info "chimera" ~doc)
    [
      run_cmd;
      stats_cmd;
      recover_cmd;
      checkpoint_cmd;
      eval_cmd;
      analyze_cmd;
      graph_cmd;
      serve_cmd;
      loadgen_cmd;
      repl_cmd;
    ]

(* ~term_err:1 so engine failures exit 1 uniformly across subcommands;
   CLI usage errors keep cmdliner's 124. *)
let () = exit (Cmd.eval ~term_err:1 main_cmd)
