(* Session management: per-connection sessions multiplexed onto N
   independent engine shards, executed either inline (single-reactor
   mode) or on worker domains (one per shard by default).

   The engine is single-threaded and transactional, so concurrency comes
   from partitioning, not sharing: [--engines N] creates N ordinary
   engines (each wrapped in the script interpreter, each with its own
   journal) and a session is pinned to the shard its key hashes to
   (FNV-1a over the full key — a client-supplied HELLO key when given,
   the decimal session id otherwise).  Within a shard, transactions
   serialize: the first LINE of a session acquires the shard,
   COMMIT/ABORT release it, and engine-bound commands of other sessions
   queue FIFO until then.  Queued sessions are reported [blocked] so the
   reactor stops reading from them — the queue bound plus that read-stop
   is the admission control of the protocol.

   With [domains = 0] every state transition is synchronous and
   single-threaded, exactly as above: the reactor calls in with one
   decoded payload at a time and gets back the list of replies (possibly
   for *other* sessions: releasing a shard answers its waiters) to write
   out.

   With [domains = M > 0] the engines move off the reactor: shard [i]
   belongs to worker domain [i mod M], commands travel through a bounded
   per-worker mailbox, and replies come back through a per-worker
   completion queue that the reactor drains from [pump] (a self-pipe
   waker interrupts its select).  The ownership and waiter bookkeeping
   stays on the reactor and is updated *eagerly at submit time* — a
   COMMIT releases its shard the moment it is enqueued — which is sound
   because the per-worker mailbox is FIFO: a waiter's LINE enqueued
   after the COMMIT also executes after it.  Reply order per session is
   preserved by counting in-flight jobs: shard-bound commands pipeline
   FIFO through the one worker the session maps to, and reactor-answered
   commands (HELLO, PING, state errors, QUIT) wait until nothing is in
   flight so their replies cannot overtake. *)

open Chimera_event
open Chimera_rules
open Chimera_lang
module Mailbox = Chimera_util.Mailbox
module Fnv = Chimera_util.Fnv

module Manager = struct
  type event =
    | Reply of int * Protocol.reply
    | Close of int
    | Committed of { sid : int; shard : int; seq : int; reply : Protocol.reply }
        (** a successful COMMIT on a journaled shard: [seq] is the shard's
            commit sequence after the marker.  The reactor may park the
            reply until replication followers acknowledge [seq]
            (semi-synchronous replication); without followers it sends
            the reply immediately. *)
    | Notify of {
        sid : int;
        sub : int;
        binary : bool;
        at : int;
        bindings : (string * string) list list;
      }
        (** a committed activation of [sid]'s subscription [sub] — the
            committing session and the subscriber are in general
            different sessions of the same shard.  Emitted before the
            commit's own Reply/Committed event, so a subscriber that is
            also the committer sees its notifies first.  The reactor
            frames it (text or binary per the subscription) onto the
            connection's bounded notify queue. *)

  (* One queued unit of session input: a parsed text command, or a raw
     binary EVENT/BATCH payload.  Binary payloads stay undecoded here —
     the whole point of the binary path is that the per-record work
     happens on the shard's worker domain, not the reactor; the reactor
     only runs the O(1) shape check before acquiring the shard. *)
  type input = Cmd of Protocol.command | Events of string

  (* One live subscription: the engine rule it registered (named
     [sub.<sid>.<id>], which is what routes activations back) and the
     NOTIFY encoding the client asked for. *)
  type sub_entry = { sub_rule : string; sub_bin : bool }

  type session = {
    id : int;
    mutable shard : int;  (** re-pinned by a HELLO session key *)
    mutable greeted : bool;
    pending : input Queue.t;
    mutable waiting : bool;  (** enqueued in its shard's waiter queue *)
    mutable closed : bool;
    mutable inflight : int;  (** jobs submitted to a worker, not yet completed *)
    mutable etypes : Event_type.t option array;
        (** the session's interned etype table, indexed by the ids binary
            records carry; announced by ETYPE.  Replaced wholesale on
            every change (copy-on-write), so a snapshot shipped with an
            in-flight job is immutable and safe to share with a worker
            domain *)
    subs : (int, sub_entry) Hashtbl.t;
        (** the connection's subscription registry, updated eagerly at
            SUB submit (so pipelined duplicates and in-flight defines are
            visible) and pruned at UNSUB/failed-SUB completion (so
            notifies from commits ahead of the UNSUB still route) *)
  }

  type shard = {
    idx : int;
    mutable interp : Interp.t;  (** replaced wholesale by a standby reset *)
    mutable journal : Journal.t option;  (** attached at promotion on a standby *)
    mutable owner : int option;  (** session id holding the open tx *)
    waiters : int Queue.t;
    executed : string list ref;  (** execution-listener accumulator, newest first *)
    mutable dropped_subs : (int * int * string) list;
        (** [(sid, sub, rule)] of disconnected sessions' subscriptions,
            undefined at the shard's next transaction boundary (an
            undefine inside another session's open transaction would
            move its savepoint); newest first *)
    (* Standby (replication follower) state; inert on a primary. *)
    mutable repl_sink : Journal.Sink.t option;
        (** the local byte-for-byte copy of the primary's segment *)
    mutable repl_pending : Journal.entry list;
        (** records since the last commit/abort marker, newest first *)
    mutable repl_seq : int;  (** last commit sequence applied *)
    mutable repl_head : int;  (** primary's commit sequence, last reported *)
  }

  (* What a worker domain executes.  LINE text is parsed on the reactor
     (a parse error never acquires the shard, and never touches the
     engine), so the job carries statements, not text. *)
  type job =
    | Run_line of { sid : int; shard : int; statements : Ast.statement list }
    | Run_event of {
        sid : int;
        shard : int;
        etype : Event_type.t;
        oid : int;
      }  (** the text EVENT verb, resolved on the reactor *)
    | Run_events of {
        sid : int;
        shard : int;
        payload : string;
        etypes : Event_type.t option array;
            (** the session's table at submit time — an immutable
                snapshot, so an ETYPE later in the pipeline cannot
                retroactively rebind ids of frames already in flight *)
      }  (** a raw binary EVENT/BATCH payload, decoded on the worker *)
    | Run_commit of { sid : int; shard : int }
    | Run_abort of { sid : int; shard : int; quiet : bool }
    | Run_stats of { sid : int; shard : int; note : string }
    | Run_sub of { sid : int; shard : int; sub : int; spec : Rule.spec }
        (** define + watch the subscription's rule; the spec was parsed
            and validated on the reactor *)
    | Run_unsub of {
        sid : int;
        shard : int;
        sub : int;
        rule : string;
        quiet : bool;  (** disconnect cleanup: no reply *)
      }

  type completion = {
    done_sid : int;
    done_reply : Protocol.reply option;
    done_commit : (int * int) option;
        (** [(shard, seq)] when the job was a successful journaled COMMIT *)
    done_notifies : Engine.activation list;
        (** committed activations of watched rules this COMMIT made
            deliverable, in commit order *)
    done_sub_failed : int option;
        (** the engine refused this Run_sub: the reactor rolls back the
            eager registry entry *)
    done_unsub : int option;
        (** this Run_unsub finished: the reactor drops the registry
            entry now (not at submit), so earlier commits' notifies
            still routed *)
  }

  let completion ?reply ?commit ?(notifies = []) ?sub_failed ?unsub sid =
    {
      done_sid = sid;
      done_reply = reply;
      done_commit = commit;
      done_notifies = notifies;
      done_sub_failed = sub_failed;
      done_unsub = unsub;
    }

  type worker = {
    w_index : int;
    w_cmds : job Mailbox.t;
    w_out : completion Mailbox.t;
    w_deferred : job Queue.t;
        (** reactor-side overflow, flushed into [w_cmds] ahead of new
            submissions so the per-worker FIFO order holds *)
    mutable w_domain : unit Domain.t option;
  }

  type runtime =
    | Inline
    | Threaded of {
        n : int;  (** worker count; shard [i] belongs to worker [i mod n] *)
        workers : worker array;
        waker : Mailbox.Waker.waker;
      }

  type t = {
    engines : int;
    shards : shard array;
    sessions : (int, session) Hashtbl.t;
    mutable next_sid : int;
    max_pending : int;
    extra_stats : (unit -> string) option;
    mutable down : bool;
    runtime : runtime;
    mutable standby_mode : bool;
        (** a replication follower: writes are refused, records shipped
            from a primary apply through {!repl_apply}, {!promote} flips
            it to an ordinary primary *)
    fsync : Journal.sync_policy;
    boot_script : string option;  (** kept for standby shard resets *)
    checkpoint_every : int option;
        (** commits between engine checkpoints (journaled shards);
            with [checkpoint_interval] also [None], the legacy
            compact/rotate behaviour applies *)
    checkpoint_interval : float option;
        (** seconds between engine checkpoints (checked at commit
            boundaries); combinable with [checkpoint_every] — whichever
            cadence is due first fires *)
    gc_floors : int Atomic.t array;
        (** per-shard replication ack floor, written by the reactor
            ({!set_gc_floor}) and read by the engine's GC callback on the
            shard's worker domain; [max_int] = no follower pins
            anything *)
    boot_seqs : int array;
        (** each shard's journal commit sequence right after boot, read
            before any worker domain spawns (the reactor's race-free
            baseline for replication head tracking) *)
  }

  (* Commands queued per worker mailbox; sized so a full complement of
     pipelining sessions rarely defers, without unbounded buffering. *)
  let mailbox_capacity = 1024

  (* ------------------------------------------------------------ setup *)

  let rec mkdir_p path =
    if path = "" || path = "." || path = "/" || Sys.file_exists path then Ok ()
    else
      let parent = Filename.dirname path in
      let ( let* ) = Result.bind in
      let* () = if parent = path then Ok () else mkdir_p parent in
      match Unix.mkdir path 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create journal directory %s: %s" path
               (Unix.error_message e))

  (* A standby shard bootstraps the way [chimera recover] does: only the
     boot script's *definitions* run — classes, triggers and timers are
     program text, not journaled state — while the boot transaction's
     operations arrive from the primary's journal stream and replay like
     every other record.  Running the full script here would apply those
     operations twice. *)
  let run_boot_definitions interp src =
    match Parser.parse src with
    | Error msg -> Error msg
    | Ok statements ->
        let definitions =
          List.filter
            (function
              | Ast.Define_class _ | Ast.Define_trigger _ | Ast.Define_timer _
                ->
                  true
              | _ -> false)
            statements
        in
        List.fold_left
          (fun acc stmt ->
            match acc with
            | Error _ -> acc
            | Ok () -> Interp.run_statement interp stmt)
          (Ok ()) definitions

  let shard_journal_path dir idx =
    Filename.concat dir (Printf.sprintf "shard-%d.journal" idx)

  let make_shard ~standby ~journal_dir ~fsync ~boot_script ~checkpoint_every
      ~checkpoint_interval ~gc_floor idx =
    let ( let* ) = Result.bind in
    let interp = Interp.create () in
    let executed = ref [] in
    Engine.set_on_execution (Interp.engine interp)
      (fun name -> executed := name :: !executed);
    let finish ~journal ~repl_sink =
      {
        idx;
        interp;
        journal;
        owner = None;
        waiters = Queue.create ();
        executed;
        dropped_subs = [];
        repl_sink;
        repl_pending = [];
        repl_seq = 0;
        repl_head = 0;
      }
    in
    if standby then
      (* No engine-attached journal: the local segment copy is a raw
         [Sink] fed by the replication stream; promotion reopens it for
         appending and attaches it. *)
      let* repl_sink =
        match journal_dir with
        | None -> Ok None
        | Some dir -> (
            let path = shard_journal_path dir idx in
            match Journal.Sink.create ~sync:fsync ~path () with
            | sink -> Ok (Some sink)
            | exception Sys_error msg ->
                Error (Printf.sprintf "cannot open journal %s: %s" path msg))
      in
      let* () =
        match boot_script with
        | None -> Ok ()
        | Some src -> (
            match run_boot_definitions interp src with
            | Ok () -> Ok ()
            | Error msg ->
                Error (Printf.sprintf "boot script (shard %d): %s" idx msg))
      in
      Ok (finish ~journal:None ~repl_sink)
    else
      let* journal =
        match journal_dir with
        | None -> Ok None
        | Some dir -> (
            let path = shard_journal_path dir idx in
            match Journal.create ~sync:fsync ~path () with
            | j ->
                Engine.set_journal (Interp.engine interp) j;
                Ok (Some j)
            | exception Sys_error msg ->
                Error (Printf.sprintf "cannot open journal %s: %s" path msg))
      in
      let* () =
        match boot_script with
        | None -> Ok ()
        | Some src -> (
            match Interp.run_string interp src with
            | Error msg ->
                Error (Printf.sprintf "boot script (shard %d): %s" idx msg)
            | Ok () -> (
                (* Shards open for traffic on a committed, quiescent state
                   whatever the script's trailing statement was. *)
                Interp.clear_output interp;
                match Engine.commit (Interp.engine interp) with
                | Ok () -> Ok ()
                | Error e ->
                    Error
                      (Fmt.str "boot script commit (shard %d): %a" idx
                         Engine.pp_error e)))
      in
      (* Bounded state: periodic checkpoints + segment GC on journaled
         shards, gated by the replication ack floor the reactor feeds.
         Count cadence, time cadence, or both — first due fires. *)
      (match (journal, checkpoint_every, checkpoint_interval) with
      | Some _, None, None | None, _, _ -> ()
      | Some _, every_commits, every_seconds ->
          Engine.enable_checkpoints (Interp.engine interp) ?every_commits
            ?every_seconds ~gc_floor ());
      Ok (finish ~journal ~repl_sink:None)

  (* ----------------------------------------------------- shard pinning *)

  (* FNV-1a over the full key.  The previous scheme — [Hashtbl.hash sid]
     over the dense id sequence — looks fine in aggregate but skews badly
     over the window of ids a batch of concurrent clients actually holds
     (64 consecutive ids over 4 shards land up to 4x apart); hashing the
     decimal string byte-by-byte spreads dense and common-prefixed keys
     alike. *)
  let pin t key = Fnv.hash key mod t.engines

  (* ------------------------------------------------- worker execution *)

  (* Everything below [run_line]/[do_commit]/[do_stats] touches only the
     shard's own interp/journal/executed cell: exclusive access is by
     construction — inline mode runs them on the reactor, threaded mode
     on the one worker domain the shard maps to. *)

  let trim_trailing_newlines s =
    let n = ref (String.length s) in
    while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do
      decr n
    done;
    String.sub s 0 !n

  (* Runs the statements of one LINE as a unit; the engine rolls a failed
     block back by itself, and the reply is either the executed-rule list
     or the inspection output the statements produced. *)
  let run_line shard statements =
    let interp = shard.interp in
    shard.executed := [];
    Interp.clear_output interp;
    let result =
      List.fold_left
        (fun acc stmt ->
          match acc with
          | Error _ -> acc
          | Ok () -> Interp.run_statement interp stmt)
        (Ok ()) statements
    in
    match result with
    | Error msg -> Protocol.Err ("engine", msg)
    | Ok () -> (
        match List.rev !(shard.executed) with
        | [] -> Protocol.Ok_ (trim_trailing_newlines (Interp.output interp))
        | rules -> Protocol.Triggered rules)

  (* Besides the reply, a successful commit on a journaled shard reports
     the commit sequence its marker carries — what a replication follower
     must acknowledge before the reply may be released under
     semi-synchronous replication. *)
  let do_commit shard =
    let engine = Interp.engine shard.interp in
    shard.executed := [];
    match Interp.run_statement shard.interp Ast.Commit with
    | Ok () ->
        let reply =
          match List.rev !(shard.executed) with
          | [] -> Protocol.Ok_ ""
          | rules -> Protocol.Triggered rules
        in
        (reply, Option.map Journal.commit_seq shard.journal)
    | Error msg ->
        (* A failed commit (e.g. a non-terminating deferred cascade)
           leaves no committed state to hand over: abort, so the shard
           frees in a defined state. *)
        Engine.abort engine;
        (Protocol.Err ("engine", msg ^ " (transaction aborted)"), None)

  let do_abort shard = Engine.abort (Interp.engine shard.interp)

  let executed_reply shard =
    match List.rev !(shard.executed) with
    | [] -> Protocol.Ok_ ""
    | rules -> Protocol.Triggered rules

  (* One external event occurrence as its own engine line (the text
     EVENT verb, etype resolved on the reactor). *)
  let run_event shard ~etype ~oid =
    shard.executed := [];
    match
      Engine.ingest_event (Interp.engine shard.interp) ~etype
        ~oid:(Chimera_util.Ident.Oid.of_int oid)
    with
    | Ok () -> executed_reply shard
    | Error e -> Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)

  (* Decodes and applies one binary EVENT/BATCH payload: the per-record
     loop — field validation, etype-id resolution, engine ingestion —
     runs here, on the shard's worker domain, not the reactor.  A BATCH
     is exactly that many single-event lines with ONE reply: the rules
     every record executed, in order, or the first error — preceding
     records stay applied and the transaction stays open (the client
     decides between COMMIT and ABORT).  The wire timestamp is the
     client's clock, carried for tooling; the engine assigns its own
     instants, so replicas and replays agree regardless of client
     clocks. *)
  let run_events shard ~etypes payload =
    shard.executed := [];
    match Protocol.decode_binary payload with
    | Error msg -> Protocol.Err ("proto", msg)
    | Ok records ->
        let engine = Interp.engine shard.interp in
        let rec apply = function
          | [] -> executed_reply shard
          | { Protocol.etype_id; oid; timestamp = _ } :: rest -> (
              let etype =
                if etype_id < Array.length etypes then etypes.(etype_id)
                else None
              in
              match etype with
              | None ->
                  Protocol.Err
                    ( "proto",
                      Printf.sprintf
                        "unknown etype id %d (announce it with ETYPE)" etype_id
                    )
              | Some etype -> (
                  match
                    Engine.ingest_event engine ~etype
                      ~oid:(Chimera_util.Ident.Oid.of_int oid)
                  with
                  | Ok () -> apply rest
                  | Error e ->
                      Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)))
        in
        apply records

  (* [note] is the ownership annotation, computed where the ownership
     bookkeeping lives (the reactor) and carried into the job. *)
  let stats_text t ~sid ~shard_idx ~note =
    let shard = t.shards.(shard_idx) in
    let engine = Interp.engine shard.interp in
    let st = Engine.statistics engine in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "session %d shard %d/%d%s\n\
          engine: %d line(s), %d event(s), %d consideration(s), %d \
          execution(s), %d abort(s)"
         sid shard_idx t.engines note st.Engine.lines st.Engine.events
         st.Engine.considerations st.Engine.executions st.Engine.aborts);
    (match shard.journal with
    | None -> ()
    | Some j ->
        let c = Journal.counters j in
        Buffer.add_string buf
          (Printf.sprintf
             "\njournal: %d record(s), %d commit(s), %d fsync(s), %d \
              rotation(s) -> %s"
             c.Journal.appends c.Journal.commits c.Journal.syncs
             c.Journal.rotations (Journal.path j)));
    (* The journal-GC floor and the replication ack floor gating it —
       ROADMAP's "unobservable floor": "none" until a checkpoint cycle
       ran (resp. while no follower pins anything). *)
    (if Engine.checkpoint_path engine <> None then
       let floor_text =
         match Engine.gc_floor engine with
         | Some floor -> string_of_int floor
         | None -> "none"
       in
       let ack = Atomic.get t.gc_floors.(shard_idx) in
       let ack_text = if ack = max_int then "none" else string_of_int ack in
       Buffer.add_string buf
         (Printf.sprintf "\nbounds: gc.floor=%s, repl.ack_floor=%s" floor_text
            ack_text));
    if t.standby_mode then begin
      Buffer.add_string buf
        (Printf.sprintf "\nrepl: standby, applied seq %d, primary seq %d"
           shard.repl_seq shard.repl_head);
      match shard.repl_sink with
      | None -> ()
      | Some sink ->
          Buffer.add_string buf
            (Printf.sprintf " -> %s (%d byte(s))" (Journal.Sink.path sink)
               (Journal.Sink.bytes_written sink))
    end;
    (match t.extra_stats with
    | None -> ()
    | Some f ->
        let extra = f () in
        if extra <> "" then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf extra
        end);
    Buffer.contents buf

  let exec_job t = function
    | Run_line { sid; shard; statements } ->
        completion sid ~reply:(run_line t.shards.(shard) statements)
    | Run_event { sid; shard; etype; oid } ->
        completion sid ~reply:(run_event t.shards.(shard) ~etype ~oid)
    | Run_events { sid; shard; payload; etypes } ->
        completion sid ~reply:(run_events t.shards.(shard) ~etypes payload)
    | Run_commit { sid; shard } ->
        let reply, seq = do_commit t.shards.(shard) in
        (* Drained right after the commit point: the activations this
           transaction (and no aborted one) made deliverable, in commit
           order — the reactor routes them before the commit's reply. *)
        let notifies =
          Engine.drain_activations (Interp.engine t.shards.(shard).interp)
        in
        let c = completion sid ~reply ~notifies in
        { c with done_commit = Option.map (fun seq -> (shard, seq)) seq }
    | Run_abort { sid; shard; quiet } ->
        do_abort t.shards.(shard);
        if quiet then completion sid
        else completion sid ~reply:(Protocol.Ok_ "aborted")
    | Run_stats { sid; shard; note } ->
        completion sid ~reply:(Protocol.Ok_ (stats_text t ~sid ~shard_idx:shard ~note))
    | Run_sub { sid; shard; sub; spec } -> (
        let engine = Interp.engine t.shards.(shard).interp in
        match Engine.define_dynamic engine spec with
        | Error (`Rule_error msg) ->
            completion sid ~reply:(Protocol.Err ("engine", msg)) ~sub_failed:sub
        | Ok _ ->
            Engine.watch_rule engine spec.Rule.name;
            completion sid ~reply:(Protocol.Ok_ ""))
    | Run_unsub { sid; shard; sub; rule; quiet } ->
        let engine = Interp.engine t.shards.(shard).interp in
        Engine.unwatch_rule engine rule;
        (match Engine.undefine engine rule with
        | Ok () -> ()
        | Error (`Rule_error _) -> ());
        let c = if quiet then completion sid else completion sid ~reply:(Protocol.Ok_ "") in
        { c with done_unsub = Some sub }

  let worker_loop t ~n ~waker w =
    let rec loop () =
      match Mailbox.pop w.w_cmds with
      | None -> ()  (* closed and drained: shutdown *)
      | Some job ->
          let c = exec_job t job in
          ignore (Mailbox.push w.w_out c);
          Mailbox.Waker.wake waker;
          loop ()
    in
    loop ();
    (* The worker owns its shards' journals from spawn to exit; closing
       here happens-before the reactor's [Domain.join]. *)
    Array.iteri
      (fun i shard ->
        if i mod n = w.w_index then Option.iter Journal.close shard.journal)
      t.shards;
    Mailbox.Waker.wake waker

  (* ---------------------------------------------------------- create *)

  let create ~engines ?(domains = 0) ?journal_dir ?(fsync = Journal.Per_commit)
      ?boot_script ?(max_pending = 64) ?extra_stats ?(standby = false)
      ?checkpoint_every ?checkpoint_interval () =
    let ( let* ) = Result.bind in
    if engines <= 0 then Error "engines must be positive"
    else if domains < 0 then Error "domains must be non-negative"
    else if (match checkpoint_every with Some n -> n <= 0 | None -> false)
    then Error "checkpoint interval must be positive"
    else if
      match checkpoint_interval with Some s -> s <= 0.0 | None -> false
    then Error "checkpoint interval must be positive"
    else
      let* () =
        match journal_dir with None -> Ok () | Some dir -> mkdir_p dir
      in
      let gc_floors = Array.init engines (fun _ -> Atomic.make max_int) in
      let* shards =
        let rec build acc idx =
          if idx >= engines then Ok (List.rev acc)
          else
            let* shard =
              make_shard ~standby ~journal_dir ~fsync ~boot_script
                ~checkpoint_every ~checkpoint_interval
                ~gc_floor:(fun () -> Atomic.get gc_floors.(idx))
                idx
            in
            build (shard :: acc) (idx + 1)
        in
        build [] 0
      in
      let runtime =
        (* A standby applies the replication stream from the reactor
           thread, so it always runs inline; the worker domains start at
           promotion time in a later revision — for now a promoted
           follower keeps serving inline. *)
        if domains = 0 || standby then Inline
        else
          let n = min domains engines in
          Threaded
            {
              n;
              waker = Mailbox.Waker.create ();
              workers =
                Array.init n (fun i ->
                    {
                      w_index = i;
                      w_cmds = Mailbox.create mailbox_capacity;
                      w_out = Mailbox.create mailbox_capacity;
                      w_deferred = Queue.create ();
                      w_domain = None;
                    });
            }
      in
      let shards = Array.of_list shards in
      let boot_seqs =
        Array.map
          (fun shard ->
            match shard.journal with Some j -> Journal.commit_seq j | None -> 0)
          shards
      in
      let t =
        {
          engines;
          shards;
          sessions = Hashtbl.create 64;
          next_sid = 1;
          max_pending;
          extra_stats;
          down = false;
          runtime;
          standby_mode = standby;
          fsync;
          boot_script;
          checkpoint_every;
          checkpoint_interval;
          gc_floors;
          boot_seqs;
        }
      in
      (match t.runtime with
      | Inline -> ()
      | Threaded { n; workers; waker } ->
          Array.iter
            (fun w ->
              w.w_domain <- Some (Domain.spawn (fun () -> worker_loop t ~n ~waker w)))
            workers);
      Ok t

  let engines t = t.engines
  let domains t = match t.runtime with Inline -> 0 | Threaded { n; _ } -> n

  (* The reactor publishes each shard's replication ack floor (the lowest
     commit sequence every attached follower has durably acked;
     [max_int] without followers): segment GC on the shard's worker
     domain reads it through the engine's [gc_floor] callback. *)
  let set_gc_floor t ~shard floor = Atomic.set t.gc_floors.(shard) floor
  let standby t = t.standby_mode
  let boot_seqs t = Array.copy t.boot_seqs
  let session_count t = Hashtbl.length t.sessions

  let wakeup_fd t =
    match t.runtime with
    | Inline -> None
    | Threaded { waker; _ } -> Some (Mailbox.Waker.fd waker)

  let open_session t =
    let sid = t.next_sid in
    t.next_sid <- sid + 1;
    Hashtbl.replace t.sessions sid
      {
        id = sid;
        shard = pin t (string_of_int sid);
        greeted = false;
        pending = Queue.create ();
        waiting = false;
        closed = false;
        inflight = 0;
        etypes = [||];
        subs = Hashtbl.create 4;
      };
    sid

  let shard_of_session t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s.shard
    | None -> pin t (string_of_int sid)

  let in_transaction t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> t.shards.(s.shard).owner = Some sid
    | None -> false

  let blocked t sid =
    match Hashtbl.find_opt t.sessions sid with
    | Some s -> s.waiting || not (Queue.is_empty s.pending)
    | None -> false

  let idle t sid =
    match Hashtbl.find_opt t.sessions sid with
    | None -> true
    | Some s -> Queue.is_empty s.pending && s.inflight = 0

  let journal_paths t =
    Array.to_list t.shards
    |> List.filter_map (fun shard ->
           match shard.journal with
           | Some j -> Some (Journal.path j)
           | None -> Option.map Journal.Sink.path shard.repl_sink)

  (* ------------------------------------------------------- submission *)

  let worker_of t shard_idx =
    match t.runtime with
    | Inline -> invalid_arg "Session.Manager: no workers in inline mode"
    | Threaded { n; workers; _ } -> workers.(shard_idx mod n)

  (* The reactor never blocks: a push refused by a full mailbox lands in
     the worker's deferred queue instead, flushed (in order, ahead of
     anything newer) by [pump] as completions free slots. *)
  let submit_job t shard_idx job =
    let w = worker_of t shard_idx in
    if not (Queue.is_empty w.w_deferred && Mailbox.try_push w.w_cmds job) then
      Queue.add job w.w_deferred

  let submit t s job =
    s.inflight <- s.inflight + 1;
    submit_job t s.shard job

  let flush_deferred w =
    let rec go () =
      match Queue.peek_opt w.w_deferred with
      | Some job when Mailbox.try_push w.w_cmds job ->
          ignore (Queue.pop w.w_deferred);
          go ()
      | Some _ | None -> ()
    in
    go ()

  (* -------------------------------------------------------- execution *)

  let push acc e = acc := e :: !acc

  let requires_shard = function
    | Events _
    | Cmd
        ( Protocol.Line _ | Protocol.Event _ | Protocol.Commit | Protocol.Abort
        | Protocol.Sub _ | Protocol.Unsub _ ) ->
        true
    | Cmd
        ( Protocol.Hello _ | Protocol.Etype _ | Protocol.Stats
        | Protocol.Ping _ | Protocol.Quit | Protocol.Repl_hello _
        | Protocol.Repl_ack _ | Protocol.Promote ) ->
        false

  (* Statements a LINE may carry: anything but [commit] — the transaction
     boundary is a protocol verb, so the session manager always knows who
     holds the shard. *)
  let line_statements text =
    match Parser.parse text with
    | Error msg -> Error ("parse", msg)
    | Ok statements ->
        if List.exists (function Ast.Commit -> true | _ -> false) statements
        then Error ("proto", "commit inside LINE: use the COMMIT verb")
        else Ok statements

  (* ------------------------------------------------------ subscriptions *)

  (* Subscription rules are named [sub.<sid>.<id>] — globally unique
     (session ids are), and the name alone routes a committed activation
     back to its connection, whichever session's commit drained it. *)
  let sub_rule_name ~sid ~sub = Printf.sprintf "sub.%d.%d" sid sub

  let parse_sub_rule_name name =
    match String.split_on_char '.' name with
    | [ "sub"; sid_text; sub_text ] -> (
        match (int_of_string_opt sid_text, int_of_string_opt sub_text) with
        | Some sid, Some sub -> Some (sid, sub)
        | _ -> None)
    | _ -> None

  (* The SUB payload parses on the reactor — a parse error never reaches
     the shard — into an ordinary rule spec: immediate coupling (the
     activation instant is the block that completed the pattern, not the
     commit), consuming (each notify consumes the events that produced
     it — re-delivery would be a phantom), empty action (detection IS the
     reaction; it cannot fail, so buffering at consideration is safe).
     [Rule.make] inside the engine derives the V(E) relevance filter
     exactly as for boot-script triggers. *)
  let sub_spec ~sid ~sub text =
    match Parser.parse_subscription text with
    | Error msg -> Error msg
    | Ok (event, condition) ->
        Ok
          {
            Rule.name = sub_rule_name ~sid ~sub;
            target = None;
            event;
            condition;
            action = [];
            coupling = Rule.Immediate;
            consumption = Rule.Consuming;
            priority = 0;
          }

  let subscription_count t =
    Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.subs) t.sessions 0

  (* Routes one committed activation to its subscriber, by rule name.  A
     missing session or registry entry means the subscriber disconnected
     (or unsubscribed) after the commit was submitted — nobody is owed
     the notify, it drops here. *)
  let route_activation t acc (a : Engine.activation) =
    match parse_sub_rule_name a.Engine.act_rule with
    | None -> ()
    | Some (sid, sub) -> (
        match Hashtbl.find_opt t.sessions sid with
        | None -> ()
        | Some s when s.closed -> ()
        | Some s -> (
            match Hashtbl.find_opt s.subs sub with
            | None -> ()
            | Some entry ->
                push acc
                  (Notify
                     {
                       sid;
                       sub;
                       binary = entry.sub_bin;
                       at = Chimera_util.Time.to_int a.Engine.act_at;
                       bindings = a.Engine.act_bindings;
                     })))

  (* HELLO argument: "<version>" or "<version> <session-key>".  A key,
     when present, re-pins the session by FNV-1a of the full key before
     any engine traffic — clients that mint related ids (dense counters,
     a common prefix) still spread evenly over the shards. *)
  let split_hello arg =
    match String.index_opt arg ' ' with
    | None -> (arg, "")
    | Some i ->
        ( String.sub arg 0 i,
          String.trim (String.sub arg (i + 1) (String.length arg - i - 1)) )

  (* ETYPE: pure session state on the reactor.  The table is replaced,
     never mutated in place, so snapshots shipped with in-flight jobs
     keep the binding they were submitted under.  Any event type the
     text grammar can name is internable — external events by bare name,
     operation events as "op(class)". *)
  let exec_etype s ~id ~name =
    match Event_type.of_string name with
    | Error msg -> Protocol.Err ("parse", msg)
    | Ok etype ->
        let len = Array.length s.etypes in
        let table =
          if id < len then Array.copy s.etypes
          else begin
            let grown = Array.make (id + 1) None in
            Array.blit s.etypes 0 grown 0 len;
            grown
          end
        in
        table.(id) <- Some etype;
        s.etypes <- table;
        Protocol.Ok_ ""

  let greeting_note s shard =
    match shard.owner with
    | Some owner when owner = s.id -> " (transaction open)"
    | Some _ -> " (shard busy)"
    | None -> ""

  (* HELLO is pure reactor state in both modes. *)
  let exec_hello t s arg acc =
    let reply r = push acc (Reply (s.id, r)) in
    let version, key = split_hello arg in
    if s.greeted then reply (Protocol.Err ("state", "already greeted"))
    else if String.equal version Protocol.version then begin
      s.greeted <- true;
      if key <> "" then s.shard <- pin t key;
      (* [window] is the pipelining depth on offer: how many frames the
         client may keep in flight before the per-session pending bound
         (and the read-stop behind it) pushes back. *)
      reply
        (Protocol.Ok_
           (Printf.sprintf "%s features=%s window=%d" Protocol.version
              (String.concat "," Protocol.features)
              t.max_pending))
    end
    else begin
      reply
        (Protocol.Err
           ( "proto",
             Printf.sprintf "unsupported version %S; speak %s" version
               Protocol.version ));
      s.closed <- true;
      push acc (Close s.id)
    end

  let park s shard =
    if not s.waiting then begin
      s.waiting <- true;
      Queue.add s.id shard.waiters
    end

  (* Undefines the subscription rules of disconnected sessions, at a
     transaction boundary of their shard: called whenever the shard
     frees (and at disconnect time when it already is free). *)
  let flush_dropped t shard =
    match shard.dropped_subs with
    | [] -> ()
    | dropped ->
        shard.dropped_subs <- [];
        List.iter
          (fun (sid, sub, rule) ->
            match t.runtime with
            | Inline ->
                let engine = Interp.engine shard.interp in
                Engine.unwatch_rule engine rule;
                (match Engine.undefine engine rule with
                | Ok () -> ()
                | Error (`Rule_error _) -> ())
            | Threaded _ ->
                submit_job t shard.idx
                  (Run_unsub { sid; shard = shard.idx; sub; rule; quiet = true }))
          (List.rev dropped)

  let rec release_shard t shard acc =
    shard.owner <- None;
    flush_dropped t shard;
    drain_waiters t shard acc

  (* Wakes the next waiting sessions of a freed shard, FIFO; each woken
     session runs its queued commands until it blocks again (e.g. its
     LINE re-acquired the shard and its COMMIT is yet to come — then the
     queue simply continues) or empties. *)
  and drain_waiters t shard acc =
    if shard.owner = None && not (Queue.is_empty shard.waiters) then begin
      let sid = Queue.pop shard.waiters in
      (match Hashtbl.find_opt t.sessions sid with
      | Some s when not s.closed ->
          s.waiting <- false;
          process_session t s acc
      | Some _ | None -> ());
      drain_waiters t shard acc
    end

  and process_session t s acc =
    match t.runtime with
    | Inline -> process_inline t s acc
    | Threaded _ -> process_threaded t s acc

  and process_inline t s acc =
    if (not (Queue.is_empty s.pending)) && not s.closed then begin
      let shard = t.shards.(s.shard) in
      let busy =
        match shard.owner with Some owner -> owner <> s.id | None -> false
      in
      if requires_shard (Queue.peek s.pending) && busy then park s shard
      else begin
        exec_inline t s (Queue.pop s.pending) acc;
        process_inline t s acc
      end
    end

  and exec_inline t s input acc =
    let shard = t.shards.(s.shard) in
    let engine = Interp.engine shard.interp in
    let reply r = push acc (Reply (s.id, r)) in
    let owner_self () = shard.owner = Some s.id in
    match input with
    | Cmd (Protocol.Hello v) -> exec_hello t s v acc
    | Cmd (Protocol.Ping token) ->
        reply (Protocol.Ok_ (if token = "" then "pong" else "pong " ^ token))
    | Cmd Protocol.Stats ->
        reply
          (Protocol.Ok_
             (stats_text t ~sid:s.id ~shard_idx:s.shard
                ~note:(greeting_note s shard)))
    | Cmd Protocol.Quit ->
        (* Orderly close: an uncommitted transaction aborts before the
           shard passes to the next waiter. *)
        if owner_self () then begin
          Engine.abort engine;
          release_shard t shard acc
        end;
        reply (Protocol.Ok_ "bye");
        s.closed <- true;
        push acc (Close s.id)
    | Cmd (Protocol.Repl_hello _ | Protocol.Repl_ack _ | Protocol.Promote) ->
        (* Replication verbs never reach the session manager — the
           reactor intercepts them before dispatch; one slipping through
           means the caller is not a chimera server. *)
        reply (Protocol.Err ("proto", "replication verb outside a replication stream"))
    | Cmd
        ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
        | Protocol.Commit | Protocol.Abort | Protocol.Sub _ | Protocol.Unsub _ )
    | Events _
      when not s.greeted ->
        reply (Protocol.Err ("proto", "HELLO required first"))
    | Cmd
        ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
        | Protocol.Commit | Protocol.Abort | Protocol.Sub _ | Protocol.Unsub _ )
    | Events _
      when t.standby_mode ->
        reply
          (Protocol.Err
             ("standby", "server is a warm standby; writes go to the primary"))
    | Cmd (Protocol.Sub { id; binary; spec }) ->
        (* Subscription changes run at a transaction boundary only:
           [define_dynamic]/[undefine] refresh the savepoint, which
           would swallow part of an open transaction's rollback. *)
        if owner_self () then
          reply (Protocol.Err ("state", "SUB requires a closed transaction"))
        else if Hashtbl.mem s.subs id then
          reply
            (Protocol.Err
               ("state", Printf.sprintf "subscription %d already registered" id))
        else (
          match sub_spec ~sid:s.id ~sub:id spec with
          | Error msg -> reply (Protocol.Err ("parse", msg))
          | Ok rule_spec -> (
              match Engine.define_dynamic engine rule_spec with
              | Error (`Rule_error msg) -> reply (Protocol.Err ("engine", msg))
              | Ok _ ->
                  Engine.watch_rule engine rule_spec.Rule.name;
                  Hashtbl.replace s.subs id
                    { sub_rule = rule_spec.Rule.name; sub_bin = binary };
                  reply (Protocol.Ok_ "")))
    | Cmd (Protocol.Unsub { id }) -> (
        if owner_self () then
          reply (Protocol.Err ("state", "UNSUB requires a closed transaction"))
        else
          match Hashtbl.find_opt s.subs id with
          | None ->
              reply
                (Protocol.Err
                   ("state", Printf.sprintf "unknown subscription %d" id))
          | Some entry ->
              Hashtbl.remove s.subs id;
              Engine.unwatch_rule engine entry.sub_rule;
              (match Engine.undefine engine entry.sub_rule with
              | Ok () -> ()
              | Error (`Rule_error _) -> ());
              reply (Protocol.Ok_ ""))
    | Cmd (Protocol.Etype { id; name }) -> reply (exec_etype s ~id ~name)
    | Cmd (Protocol.Line text) -> (
        match line_statements text with
        | Error (code, msg) -> reply (Protocol.Err (code, msg))
        | Ok statements ->
            (* Acquire on first contact, hold across engine errors: the
               failed block was rolled back but the transaction is the
               client's to COMMIT or ABORT. *)
            shard.owner <- Some s.id;
            reply (run_line shard statements))
    | Cmd (Protocol.Event { etype; oid }) -> (
        match Event_type.of_string etype with
        | Error msg -> reply (Protocol.Err ("parse", msg))
        | Ok etype ->
            shard.owner <- Some s.id;
            reply (run_event shard ~etype ~oid))
    | Events payload -> (
        (* The shape check mirrors [line_statements]: a malformed frame
           never acquires the shard. *)
        match Protocol.check_binary payload with
        | Error msg -> reply (Protocol.Err ("proto", msg))
        | Ok _ ->
            shard.owner <- Some s.id;
            reply (run_events shard ~etypes:s.etypes payload))
    | Cmd Protocol.Commit ->
        if owner_self () then begin
          (let commit_reply, seq = do_commit shard in
           (* Notifies precede the commit's own reply: a subscriber that
              is also the committer observes its activations first. *)
           List.iter (route_activation t acc) (Engine.drain_activations engine);
           match seq with
           | Some seq ->
               push acc
                 (Committed { sid = s.id; shard = s.shard; seq; reply = commit_reply })
           | None -> reply commit_reply);
          release_shard t shard acc
        end
        else reply (Protocol.Err ("state", "no open transaction"))
    | Cmd Protocol.Abort ->
        if owner_self () then begin
          do_abort shard;
          release_shard t shard acc;
          reply (Protocol.Ok_ "aborted")
        end
        else reply (Protocol.Err ("state", "no open transaction"))

  (* The threaded step: examine (don't yet pop) the head command and
     either submit it to the session's worker, answer it from the
     reactor, or leave it queued.  Reactor answers wait for
     [inflight = 0] so they cannot overtake worker replies; shard
     commands park behind a busy shard exactly as in inline mode, so the
     two modes stay observably equivalent. *)
  and process_threaded t s acc =
    if (not s.closed) && (not s.waiting) && not (Queue.is_empty s.pending)
    then begin
      let shard = t.shards.(s.shard) in
      let busy =
        match shard.owner with Some owner -> owner <> s.id | None -> false
      in
      let cmd = Queue.peek s.pending in
      (* Run a reactor-side answer, gated on an empty pipeline. *)
      let inline_now f =
        if s.inflight = 0 then begin
          ignore (Queue.pop s.pending);
          f ();
          process_threaded t s acc
        end
      in
      let submit_now job =
        ignore (Queue.pop s.pending);
        submit t s job;
        process_threaded t s acc
      in
      if requires_shard cmd && busy then park s shard
      else
        match cmd with
        | Cmd (Protocol.Hello v) -> inline_now (fun () -> exec_hello t s v acc)
        | Cmd (Protocol.Ping token) ->
            inline_now (fun () ->
                push acc
                  (Reply
                     ( s.id,
                       Protocol.Ok_
                         (if token = "" then "pong" else "pong " ^ token) )))
        | Cmd Protocol.Stats ->
            submit_now
              (Run_stats
                 { sid = s.id; shard = s.shard; note = greeting_note s shard })
        | Cmd Protocol.Quit ->
            inline_now (fun () ->
                if shard.owner = Some s.id then begin
                  submit t s
                    (Run_abort { sid = s.id; shard = s.shard; quiet = true });
                  release_shard t shard acc
                end;
                push acc (Reply (s.id, Protocol.Ok_ "bye"));
                s.closed <- true;
                push acc (Close s.id))
        | Cmd (Protocol.Repl_hello _ | Protocol.Repl_ack _ | Protocol.Promote)
          ->
            (* Reactor-intercepted before dispatch; see [exec_inline]. *)
            inline_now (fun () ->
                push acc
                  (Reply
                     ( s.id,
                       Protocol.Err
                         ( "proto",
                           "replication verb outside a replication stream" ) )))
        | Cmd
            ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
            | Protocol.Commit | Protocol.Abort | Protocol.Sub _
            | Protocol.Unsub _ )
        | Events _
          when not s.greeted ->
            inline_now (fun () ->
                push acc
                  (Reply (s.id, Protocol.Err ("proto", "HELLO required first"))))
        | Cmd
            ( Protocol.Line _ | Protocol.Etype _ | Protocol.Event _
            | Protocol.Commit | Protocol.Abort | Protocol.Sub _
            | Protocol.Unsub _ )
        | Events _
          when t.standby_mode ->
            inline_now (fun () ->
                push acc
                  (Reply
                     ( s.id,
                       Protocol.Err
                         ( "standby",
                           "server is a warm standby; writes go to the primary"
                         ) )))
        | Cmd (Protocol.Sub { id; binary; spec }) ->
            (* Same boundary/duplicate checks as inline; the registry
               entry is written eagerly at submit (like shard ownership),
               so a pipelined duplicate SUB or an immediate UNSUB sees
               the in-flight define.  A failed define rolls it back at
               completion ([done_sub_failed]). *)
            if shard.owner = Some s.id then
              inline_now (fun () ->
                  push acc
                    (Reply
                       ( s.id,
                         Protocol.Err
                           ("state", "SUB requires a closed transaction") )))
            else if Hashtbl.mem s.subs id then
              inline_now (fun () ->
                  push acc
                    (Reply
                       ( s.id,
                         Protocol.Err
                           ( "state",
                             Printf.sprintf "subscription %d already registered"
                               id ) )))
            else (
              match sub_spec ~sid:s.id ~sub:id spec with
              | Error msg ->
                  inline_now (fun () ->
                      push acc (Reply (s.id, Protocol.Err ("parse", msg))))
              | Ok rule_spec ->
                  Hashtbl.replace s.subs id
                    { sub_rule = rule_spec.Rule.name; sub_bin = binary };
                  submit_now
                    (Run_sub
                       { sid = s.id; shard = s.shard; sub = id; spec = rule_spec }))
        | Cmd (Protocol.Unsub { id }) -> (
            if shard.owner = Some s.id then
              inline_now (fun () ->
                  push acc
                    (Reply
                       ( s.id,
                         Protocol.Err
                           ("state", "UNSUB requires a closed transaction") )))
            else
              match Hashtbl.find_opt s.subs id with
              | None ->
                  inline_now (fun () ->
                      push acc
                        (Reply
                           ( s.id,
                             Protocol.Err
                               ( "state",
                                 Printf.sprintf "unknown subscription %d" id ) )))
              | Some entry ->
                  (* The registry entry survives until the completion:
                     commits already in the worker's FIFO ahead of this
                     UNSUB still route their notifies. *)
                  submit_now
                    (Run_unsub
                       {
                         sid = s.id;
                         shard = s.shard;
                         sub = id;
                         rule = entry.sub_rule;
                         quiet = false;
                       }))
        | Cmd (Protocol.Etype { id; name }) ->
            (* Gated on an empty pipeline like every reactor answer; a
               frame submitted before this point keeps its snapshot. *)
            inline_now (fun () ->
                push acc (Reply (s.id, exec_etype s ~id ~name)))
        | Cmd (Protocol.Line text) -> (
            match line_statements text with
            | Error (code, msg) ->
                inline_now (fun () ->
                    push acc (Reply (s.id, Protocol.Err (code, msg))))
            | Ok statements ->
                (* Eager acquire: ownership is reactor state; the worker
                   sees only the statements. *)
                shard.owner <- Some s.id;
                submit_now
                  (Run_line { sid = s.id; shard = s.shard; statements }))
        | Cmd (Protocol.Event { etype; oid }) -> (
            match Event_type.of_string etype with
            | Error msg ->
                inline_now (fun () ->
                    push acc (Reply (s.id, Protocol.Err ("parse", msg))))
            | Ok etype ->
                shard.owner <- Some s.id;
                submit_now
                  (Run_event { sid = s.id; shard = s.shard; etype; oid }))
        | Events payload -> (
            (* O(1) shape check on the reactor; malformed frames never
               acquire the shard, and their ERR stays in pipeline order
               behind in-flight replies.  The per-record decode happens
               on the worker. *)
            match Protocol.check_binary payload with
            | Error msg ->
                inline_now (fun () ->
                    push acc (Reply (s.id, Protocol.Err ("proto", msg))))
            | Ok _count ->
                shard.owner <- Some s.id;
                submit_now
                  (Run_events
                     {
                       sid = s.id;
                       shard = s.shard;
                       payload;
                       etypes = s.etypes;
                     }))
        | Cmd Protocol.Commit ->
            if shard.owner = Some s.id then begin
              ignore (Queue.pop s.pending);
              submit t s (Run_commit { sid = s.id; shard = s.shard });
              (* Eager release: the waiters' commands enqueue behind this
                 COMMIT in the same FIFO mailbox. *)
              release_shard t shard acc;
              process_threaded t s acc
            end
            else
              inline_now (fun () ->
                  push acc
                    (Reply (s.id, Protocol.Err ("state", "no open transaction"))))
        | Cmd Protocol.Abort ->
            if shard.owner = Some s.id then begin
              ignore (Queue.pop s.pending);
              submit t s
                (Run_abort { sid = s.id; shard = s.shard; quiet = false });
              release_shard t shard acc;
              process_threaded t s acc
            end
            else
              inline_now (fun () ->
                  push acc
                    (Reply (s.id, Protocol.Err ("state", "no open transaction"))))
    end

  (* ------------------------------------------------------ completions *)

  let handle_completion t c acc =
    (* Activations route before the session lookup — they belong to the
       subscribers named in the rules, not to the committing session,
       which may itself already be gone. *)
    List.iter (route_activation t acc) c.done_notifies;
    match Hashtbl.find_opt t.sessions c.done_sid with
    | None -> ()  (* session disconnected while the job was in flight *)
    | Some s ->
        if s.inflight > 0 then s.inflight <- s.inflight - 1;
        (match c.done_sub_failed with
        | Some sub -> Hashtbl.remove s.subs sub
        | None -> ());
        (match c.done_unsub with
        | Some sub -> Hashtbl.remove s.subs sub
        | None -> ());
        (match c.done_reply with
        | Some r when not s.closed -> (
            match c.done_commit with
            | Some (shard, seq) ->
                push acc (Committed { sid = s.id; shard; seq; reply = r })
            | None -> push acc (Reply (s.id, r)))
        | Some _ | None -> ());
        if not s.closed then process_session t s acc

  let pump t =
    match t.runtime with
    | Inline -> []
    | Threaded _ when t.down -> []
    | Threaded { workers; waker; _ } ->
        Mailbox.Waker.drain waker;
        let acc = ref [] in
        Array.iter
          (fun w ->
            let rec drain () =
              match Mailbox.try_pop w.w_out with
              | Some c ->
                  handle_completion t c acc;
                  drain ()
              | None -> ()
            in
            drain ();
            flush_deferred w)
          workers;
        List.rev !acc

  (* ---------------------------------------------------------- feeding *)

  let enqueue t s input acc =
    if Queue.length s.pending >= t.max_pending then begin
      (* The per-session pending bound: the client kept sending past a
         busy shard faster than admission allows.  Pipelining clients
         never hit this through the reactor — it stops decoding a
         session's input at [blocked] — so tripping it means frames
         arrived for a session the reactor should have paused. *)
      push acc
        (Reply
           ( s.id,
             Protocol.Err
               ( "overflow",
                 Printf.sprintf "more than %d queued command(s)" t.max_pending
               ) ));
      s.closed <- true;
      push acc (Close s.id)
    end
    else begin
      Queue.add input s.pending;
      process_session t s acc
    end

  let on_payload t sid payload =
    if t.down then []
    else
      match Hashtbl.find_opt t.sessions sid with
      | None -> []
      | Some s when s.closed -> []
      | Some s ->
          let acc = ref [] in
          (match Protocol.command_of_payload payload with
          | Error msg -> push acc (Reply (sid, Protocol.Err ("proto", msg)))
          | Ok cmd -> enqueue t s (Cmd cmd) acc);
          List.rev !acc

  (* The binary twin of [on_payload]: the payload goes in raw — tag
     classification already happened (one byte), the shape check runs at
     dispatch, and the record decode on the worker domain. *)
  let on_binary t sid payload =
    if t.down then []
    else
      match Hashtbl.find_opt t.sessions sid with
      | None -> []
      | Some s when s.closed -> []
      | Some s ->
          let acc = ref [] in
          enqueue t s (Events payload) acc;
          List.rev !acc

  let disconnect t sid =
    match Hashtbl.find_opt t.sessions sid with
    | None -> []
    | Some s ->
        s.closed <- true;
        Hashtbl.remove t.sessions sid;
        let shard = t.shards.(s.shard) in
        let acc = ref [] in
        (* Subscriptions die with the connection: no registry residue
           (the session record just left the table), and the rules leave
           the engine at the shard's next transaction boundary. *)
        Hashtbl.iter
          (fun sub entry ->
            shard.dropped_subs <- (sid, sub, entry.sub_rule) :: shard.dropped_subs)
          s.subs;
        Hashtbl.reset s.subs;
        if shard.owner = Some sid then begin
          (match t.runtime with
          | Inline -> do_abort shard
          | Threaded _ ->
              submit_job t s.shard
                (Run_abort { sid; shard = s.shard; quiet = true }));
          release_shard t shard acc
        end
        else if shard.owner = None then flush_dropped t shard;
        List.rev !acc

  (* ----------------------------------------------- standby (follower) *)

  let check_standby t =
    if t.down then Error "manager is down"
    else if not t.standby_mode then Error "not a standby"
    else Ok ()

  (* A new segment generation began upstream (initial attach, or a
     checkpoint rotation on the primary): the shipped records rebuild the
     shard from nothing, so the engine restarts fresh — definitions only,
     exactly like standby boot — and the local segment copy truncates to
     a new header. *)
  let repl_reset t ~shard:idx =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    let shard = t.shards.(idx) in
    let interp = Interp.create () in
    Engine.set_on_execution (Interp.engine interp) (fun name ->
        shard.executed := name :: !(shard.executed));
    let* () =
      match t.boot_script with
      | None -> Ok ()
      | Some src -> (
          match run_boot_definitions interp src with
          | Ok () -> Ok ()
          | Error msg ->
              Error (Printf.sprintf "boot script (shard %d): %s" idx msg))
    in
    shard.interp <- interp;
    shard.repl_pending <- [];
    shard.repl_seq <- 0;
    shard.repl_head <- 0;
    (match shard.repl_sink with
    | None -> ()
    | Some sink -> Journal.Sink.reset sink);
    Ok ()

  (* Applies one [REPL_RECORDS] batch.  The raw bytes reach the local
     segment copy first — the ack this enables must vouch for durability
     — then the records parse, group into transactions at the
     commit/abort markers they arrived with, and the committed groups
     replay through the same machinery as recovery.  The primary's
     tailer ships only marker-terminated chunks, so [repl_pending] is
     normally empty between calls; it buffers defensively regardless.
     Returns the applied commit sequence (what the follower acks). *)
  let repl_apply t ~shard:idx ~head_seq data =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    if idx < 0 || idx >= t.engines then
      Error (Printf.sprintf "no shard %d (engines=%d)" idx t.engines)
    else begin
      let shard = t.shards.(idx) in
      (match shard.repl_sink with
      | None -> ()
      | Some sink -> Journal.Sink.write sink data);
      shard.repl_head <- max shard.repl_head head_seq;
      let* txs_rev, last_seq =
        List.fold_left
          (fun acc line ->
            match acc with
            | Error _ -> acc
            | Ok (txs, _seq) -> (
                if line = "" then acc
                else
                  match Journal.entry_of_line line with
                  | Error msg ->
                      Error ("corrupt record in the replication stream: " ^ msg)
                  | Ok entry -> (
                      match entry.Journal.tag with
                      | "commit" -> (
                          match int_of_string_opt entry.Journal.payload with
                          | None -> Error "corrupt commit marker in the stream"
                          | Some marker_seq ->
                              let tx = List.rev shard.repl_pending in
                              shard.repl_pending <- [];
                              Ok ((tx, marker_seq) :: txs, marker_seq))
                      | "abort" ->
                          shard.repl_pending <- [];
                          acc
                      | _ ->
                          shard.repl_pending <- entry :: shard.repl_pending;
                          acc)))
          (Ok ([], shard.repl_seq))
          (String.split_on_char '\n' data)
      in
      (* Idempotency guard: a checkpoint base synthesized on the primary
         can cover sequences this shard already applied (the reactor may
         read a checkpoint newer than the seal it is handling) — skip
         any committed group at or below the applied sequence. *)
      let fresh =
        List.filter_map
          (fun (tx, seq) -> if seq > shard.repl_seq then Some tx else None)
          (List.rev txs_rev)
      in
      let* () =
        match fresh with
        | [] -> Ok ()
        | txs -> Engine.apply_replayed (Interp.engine shard.interp) txs
      in
      shard.repl_seq <- max shard.repl_seq last_seq;
      Ok shard.repl_seq
    end

  let repl_seqs t =
    Array.map (fun shard -> (shard.repl_seq, shard.repl_head)) t.shards

  (* Promotion: the standby becomes a primary, warm.  The shipped segment
     copy is byte-identical to the primary's journal, so it simply
     reopens for appending at the applied sequence and attaches to the
     engine — no replay; the engine already settled on committed state
     (every [repl_apply] ends in a fresh transaction, exactly as a
     completed recovery would). *)
  let promote t =
    let ( let* ) = Result.bind in
    let* () = check_standby t in
    t.standby_mode <- false;
    let rec go idx =
      if idx >= Array.length t.shards then Ok ()
      else
        let shard = t.shards.(idx) in
        let* () =
          match shard.repl_sink with
          | None -> Ok ()
          | Some sink -> (
              let path = Journal.Sink.path sink in
              Journal.Sink.close sink;
              shard.repl_sink <- None;
              match
                Journal.open_append ~sync:t.fsync ~path
                  ~commit_seq:shard.repl_seq ()
              with
              | j ->
                  Engine.set_journal (Interp.engine shard.interp) j;
                  shard.journal <- Some j;
                  (* The promoted primary checkpoints like any other. *)
                  (match (t.checkpoint_every, t.checkpoint_interval) with
                  | None, None -> ()
                  | every_commits, every_seconds ->
                      Engine.enable_checkpoints (Interp.engine shard.interp)
                        ?every_commits ?every_seconds
                        ~gc_floor:(fun () -> Atomic.get t.gc_floors.(idx))
                        ());
                  Ok ()
              | exception Sys_error msg ->
                  Error (Printf.sprintf "cannot reopen journal %s: %s" path msg)
              )
        in
        go (idx + 1)
    in
    go 0

  (* --------------------------------------------------------- shutdown *)

  let shutdown t =
    if not t.down then begin
      (match t.runtime with
      | Inline ->
          Array.iter
            (fun shard ->
              (match shard.owner with
              | Some _ ->
                  do_abort shard;
                  shard.owner <- None
              | None -> ());
              (match shard.journal with
              | Some j -> Journal.close j
              | None -> ());
              match shard.repl_sink with
              | Some sink -> Journal.Sink.close sink
              | None -> ())
            t.shards
      | Threaded { workers; waker; _ } ->
          (* Abort whatever transactions are still open — behind any work
             already queued for their shards. *)
          Array.iteri
            (fun i shard ->
              match shard.owner with
              | Some sid ->
                  shard.owner <- None;
                  submit_job t i (Run_abort { sid; shard = i; quiet = true })
              | None -> ())
            t.shards;
          (* Flush the deferred queues, draining completions to free
             mailbox slots; the workers are still live, so this settles. *)
          let rec settle () =
            if
              Array.exists
                (fun w -> not (Queue.is_empty w.w_deferred))
                workers
            then begin
              Array.iter
                (fun w ->
                  ignore (Mailbox.try_pop w.w_out);
                  flush_deferred w)
                workers;
              Domain.cpu_relax ();
              settle ()
            end
          in
          settle ();
          (* Closing [w_cmds] is the stop signal: each worker finishes
             its queue, closes its journals, and exits.  [w_out] closes
             too so a worker blocked publishing a completion is released
             (its push returns [false]) rather than deadlocking the
             join. *)
          Array.iter
            (fun w ->
              Mailbox.close w.w_cmds;
              Mailbox.close w.w_out)
            workers;
          Array.iter (fun w -> Option.iter Domain.join w.w_domain) workers;
          Mailbox.Waker.dispose waker);
      t.down <- true;
      Hashtbl.reset t.sessions
    end
end
