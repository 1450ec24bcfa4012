(* The rule-processing engine: Block Executor + transaction loop.

   A transaction is a sequence of transaction lines (non-interruptible
   blocks of data manipulations).  After every block the Trigger Support
   determines newly triggered rules; then the highest-priority triggered
   rule with a matching coupling mode is considered (condition evaluated
   set-oriented), detriggered, and — if the condition produced bindings —
   its action executes as a new block, whose events can trigger further
   rules.  Deferred rules wait for commit (Section 2). *)

open Chimera_util
open Chimera_event
open Chimera_calculus
open Chimera_store
module Obs = Chimera_obs.Obs

(* The engine phases of one transaction — event raise, rule wake,
   condition eval, action exec — plus the transaction boundaries
   (commit/abort/recover) each get a counter and, where latency is
   interesting, a histogram fed by a span. *)
let c_lines = Obs.Metrics.counter "engine.lines"
let c_blocks = Obs.Metrics.counter "engine.blocks"
let c_considerations = Obs.Metrics.counter "engine.considerations"
let c_executions = Obs.Metrics.counter "engine.executions"
let c_operations = Obs.Metrics.counter "engine.operations"
let c_commits = Obs.Metrics.counter "engine.commits"
let c_aborts = Obs.Metrics.counter "engine.aborts"
let c_block_rollbacks = Obs.Metrics.counter "engine.block_rollbacks"
let c_recover_entries = Obs.Metrics.counter "engine.recover.entries"
let c_ckpt_writes = Obs.Metrics.counter "ckpt.writes"

(* The journal-GC floor actually applied by the last checkpoint cycle:
   min(checkpoint seq, replication ack floor).  max_int (the unreplicated
   sentinel) is never written here — the applied floor is capped by the
   checkpoint sequence. *)
let g_gc_floor = Obs.Metrics.gauge "gc.floor"
let c_replayed_records = Obs.Metrics.counter "journal.replayed_records"
let h_ckpt = Obs.Metrics.histogram "ckpt.write_ns"
let h_line = Obs.Metrics.histogram "engine.line_ns"
let h_condition = Obs.Metrics.histogram "engine.condition_ns"
let h_action = Obs.Metrics.histogram "engine.action_ns"
let h_commit = Obs.Metrics.histogram "engine.commit_ns"
let h_abort = Obs.Metrics.histogram "engine.abort_ns"

type error =
  [ Condition.error
  | `Nontermination of string ]

let pp_error ppf = function
  | #Condition.error as e -> Condition.pp_error ppf e
  | `Nontermination rule ->
      Fmt.pf ppf "rule processing did not quiesce (last rule %s)" rule

type config = {
  trigger : Trigger_support.config;
  max_rule_executions : int;
      (** guard against non-terminating rule cascades *)
  window_events : bool;
      (** sliding event-base windows: at commit (and mid-transaction
          beyond [retire_in_tx]) retire occurrences no rule window can
          reach again, keeping log indices stable — behaviour-preserving
          (differential-tested against an unwindowed twin) *)
  retire_in_tx : int option;
      (** mid-transaction retirement threshold: once the live log
          exceeds this many occurrences, each line ends with a horizon
          computation and prefix retirement (bounds long transactions
          with consuming rules; preserved events stay until commit) *)
}

let default_config =
  {
    trigger = Trigger_support.default_config;
    max_rule_executions = 10_000;
    window_events = true;
    retire_in_tx = Some 10_000;
  }

type stats = {
  trigger_stats : Trigger_support.stats;
  mutable lines : int;  (** user transaction lines executed *)
  mutable blocks : int;  (** blocks (lines + rule actions) *)
  mutable considerations : int;
  mutable executions : int;  (** considerations whose condition held *)
  mutable operations : int;
  mutable events : int;
  mutable aborts : int;  (** transactions rolled back via {!abort} *)
  mutable block_rollbacks : int;  (** failed blocks undone atomically *)
  mutable journal_appends : int;  (** records accepted by the journal *)
  mutable journal_commits : int;  (** commit markers written *)
  mutable journal_syncs : int;  (** fsyncs issued by the journal *)
  mutable recovered_commits : int;  (** committed transactions replayed *)
  mutable recovered_entries : int;  (** journal records replayed *)
  mutable recovery_dropped_entries : int;
      (** intact but uncommitted records dropped on recovery *)
  mutable recovery_torn_bytes : int;  (** torn-tail bytes dropped *)
}

let stats () =
  {
    trigger_stats = Trigger_support.stats ();
    lines = 0;
    blocks = 0;
    considerations = 0;
    executions = 0;
    operations = 0;
    events = 0;
    aborts = 0;
    block_rollbacks = 0;
    journal_appends = 0;
    journal_commits = 0;
    journal_syncs = 0;
    recovered_commits = 0;
    recovered_entries = 0;
    recovery_dropped_entries = 0;
    recovery_torn_bytes = 0;
  }

(* One committed trigger activation of a watched rule — the unit the
   live-subscription layer pushes to clients.  Bindings are rendered to
   text at consideration time (they are plain oids and instants), so an
   activation is immutable string data, safe to ship across domains. *)
type activation = {
  act_rule : string;
  act_at : Time.t;  (** the consideration instant ([ts] evaluation point) *)
  act_bindings : (string * string) list list;
      (** one entry per satisfying binding environment, in evaluation
          order; each is the condition's variables with rendered values *)
}

(* HiPAC-style periodic (clock) events, simulated on the engine's logical
   time: a timer matures every [period] transaction lines and contributes
   an external event occurrence to that line's block. *)
type timer = {
  timer_name : string;
  etype : Event_type.t;
  period : int;
  mutable countdown : int;
}

(* Checkpoint scheduling state: on a commit-count cadence, a wall-clock
   cadence, or both (whichever fires first), the engine writes a
   checkpoint beside the journal, seals the live segment and GCs the
   segments both the checkpoint and every connected follower
   ([gc_floor]) are done with.  Checkpoints only happen at commit
   boundaries — the time cadence is checked there, so a quiet engine
   does not checkpoint until the next commit lands. *)
type ckpt_state = {
  ckpt_path : string;
  every_commits : int option;
  every_seconds : float option;
  gc_floor : unit -> int;
      (** the replication ack floor: the highest commit sequence every
          connected follower has durably acked ([max_int] when
          unreplicated) — segments above it stay pinned *)
  mutable commits_since : int;
  mutable last_ckpt_s : float;  (** [Monotime.now_s] of the last cycle *)
  mutable last_floor : int;
      (** the GC floor the last cycle applied; [max_int] until one runs *)
}

type t = {
  config : config;
  store : Object_store.t;
  eb : Event_base.t;
  rules : Rule_table.t;
  wake : Trigger_support.Wake.t;
      (** the reverse V(E) index over rules, fed by an event-base
          listener; the indexed wake drains its dirty set *)
  mutable tx_start : Time.t;
  timers : timer Queue.t;  (** in definition order; maturing is in-order *)
  timer_index : (string, unit) Hashtbl.t;  (** O(1) duplicate rejection *)
  stats : stats;
  mutable tx_id : int;
      (** monotone per-engine transaction number, carried by trace spans *)
  mutable journal : Journal.t option;
  mutable ckpt : ckpt_state option;
  (* The transaction savepoint: everything {!abort} winds back to. *)
  mutable tx_sp : Object_store.savepoint;
  mutable tx_instant : Time.t;  (** last event instant at tx start *)
  mutable tx_trigger : Trigger_support.snapshot;
  mutable tx_timers : (timer * int) list;  (** timers and countdowns *)
  mutable on_execution : (string -> unit) option;
      (** notified with the rule name each time a consideration's
          condition holds and the action is about to execute — the
          network server reports the executed rules of a line to its
          client through this *)
  watched : (string, unit) Hashtbl.t;
      (** rules whose activations are buffered for {!drain_activations}
          (the live-subscription set) *)
  mutable tx_notifies : activation list;
      (** activations of watched rules in the open transaction, newest
          first; promoted to [committed_notifies] at the commit point,
          discarded wholesale by {!abort} — an aborted transaction never
          produces a notify *)
  mutable committed_notifies : activation list;
      (** committed, undrained activations, newest first *)
}

(* Timer occurrences affect a reserved pseudo-object. *)
let timer_oid = Ident.Oid.of_int 0

let timer_list t =
  List.rev (Queue.fold (fun acc timer -> timer :: acc) [] t.timers)

(* Marks the transaction start: the state {!abort} restores.  Called at
   creation, after every commit, and after recovery. *)
let begin_transaction t =
  t.tx_id <- t.tx_id + 1;
  Obs.Trace.set_tx t.tx_id;
  t.tx_sp <- Object_store.savepoint t.store;
  t.tx_instant <- Event_base.now t.eb;
  t.tx_trigger <- Trigger_support.snapshot t.rules;
  t.tx_timers <- List.map (fun tm -> (tm, tm.countdown)) (timer_list t)

let create ?(config = default_config) schema =
  let eb = Event_base.create () in
  let store = Object_store.create schema in
  let rules = Rule_table.create () in
  let wake = Trigger_support.Wake.create () in
  Event_base.on_insert eb (Trigger_support.Wake.on_event wake);
  Obs.Trace.set_tx 1;
  {
    config;
    store;
    eb;
    rules;
    wake;
    tx_start = Event_base.probe_now eb;
    timers = Queue.create ();
    timer_index = Hashtbl.create 8;
    stats = stats ();
    tx_id = 1;
    journal = None;
    ckpt = None;
    tx_sp = Object_store.savepoint store;
    tx_instant = Event_base.now eb;
    tx_trigger = Trigger_support.snapshot rules;
    tx_timers = [];
    on_execution = None;
    watched = Hashtbl.create 8;
    tx_notifies = [];
    committed_notifies = [];
  }

let store t = t.store
let event_base t = t.eb
let rules t = t.rules

let statistics t =
  (match t.journal with
  | None -> ()
  | Some j ->
      let c = Journal.counters j in
      t.stats.journal_appends <- c.Journal.appends;
      t.stats.journal_commits <- c.Journal.commits;
      t.stats.journal_syncs <- c.Journal.syncs);
  t.stats

let tx_start t = t.tx_start
let journal t = t.journal
let set_on_execution t f = t.on_execution <- Some f
let clear_on_execution t = t.on_execution <- None

(* Attaches a write-ahead journal.  Records flow from here on: attach at
   transaction start (normally right after {!create} or {!recover}) so
   the journal sees whole transactions. *)
let set_journal t j = t.journal <- Some j

(* Turns on periodic checkpointing (requires an attached journal; at
   least one cadence): the checkpoint + seal + GC cycle is what bounds
   the journal chain, as sliding-window retirement bounds the event
   base. *)
let enable_checkpoints t ?path ?every_commits ?every_seconds
    ?(gc_floor = fun () -> max_int) () =
  (match every_commits with
  | Some n when n <= 0 ->
      invalid_arg "Engine.enable_checkpoints: every_commits must be positive"
  | _ -> ());
  (match every_seconds with
  | Some s when s <= 0.0 ->
      invalid_arg "Engine.enable_checkpoints: every_seconds must be positive"
  | _ -> ());
  if every_commits = None && every_seconds = None then
    invalid_arg "Engine.enable_checkpoints: no cadence given";
  match t.journal with
  | None -> invalid_arg "Engine.enable_checkpoints: attach a journal first"
  | Some j ->
      let ckpt_path =
        match path with
        | Some p -> p
        | None -> Checkpoint.path_for (Journal.path j)
      in
      t.ckpt <-
        Some
          {
            ckpt_path;
            every_commits;
            every_seconds;
            gc_floor;
            commits_since = 0;
            last_ckpt_s = Monotime.now_s ();
            last_floor = max_int;
          }

let checkpoint_path t =
  match t.ckpt with Some ck -> Some ck.ckpt_path | None -> None

let gc_floor t =
  match t.ckpt with
  | Some ck when ck.last_floor <> max_int -> Some ck.last_floor
  | _ -> None

let journal_append t ~tag payload =
  match t.journal with
  | None -> ()
  | Some j -> Journal.append j ~tag payload

let define t spec =
  match Rule_table.add t.rules ~tx_start:t.tx_start spec with
  | Ok rule as ok ->
      (* Into the wake index (and its dirty set) the moment it exists:
         occurrences already in this transaction's window get their
         trigger check at the next wake. *)
      Trigger_support.Wake.add_rule t.wake rule;
      ok
  | Error _ as e -> e

(* Live-subscription support: dynamic rule definition and removal at a
   transaction boundary (no open client transaction — the server's
   session layer guarantees it by holding SUB/UNSUB behind shard
   ownership).  Both refresh the transaction savepoint afterwards, so a
   later abort neither removes a dynamically defined rule (it is not
   "defined inside the aborted transaction") nor resurrects a removed
   one. *)
let define_dynamic t spec =
  match define t spec with
  | Error _ as e -> e
  | Ok _ as ok ->
      begin_transaction t;
      ok

let undefine t name =
  match Rule_table.remove t.rules name with
  | Error _ as e -> e
  | Ok () ->
      Hashtbl.remove t.watched name;
      (* The removed rule may sit in the wake dirty set: re-derive the
         index from the table, exactly as abort does. *)
      Trigger_support.Wake.rebuild t.wake t.rules;
      begin_transaction t;
      Ok ()

let watch_rule t name = Hashtbl.replace t.watched name ()

let unwatch_rule t name =
  Hashtbl.remove t.watched name;
  t.tx_notifies <-
    List.filter (fun a -> not (String.equal a.act_rule name)) t.tx_notifies

let drain_activations t =
  match t.committed_notifies with
  | [] -> []
  | acts ->
      t.committed_notifies <- [];
      List.rev acts

(* Registers a periodic timer; returns the event type rules subscribe to
   (an external event on the pseudo-class "timer").  Duplicate names are
   rejected — two timers of the same name share an event type and would
   double-fire per line. *)
let define_timer t ~name ~period_lines =
  if period_lines <= 0 then
    invalid_arg "Engine.define_timer: period must be positive";
  if Hashtbl.mem t.timer_index name then
    invalid_arg (Printf.sprintf "Engine.define_timer: duplicate timer %s" name);
  let etype = Event_type.external_ ~name ~class_name:"timer" in
  Hashtbl.add t.timer_index name ();
  Queue.add
    { timer_name = name; etype; period = period_lines; countdown = period_lines }
    t.timers;
  etype

let timer_names t =
  List.rev (Queue.fold (fun acc timer -> timer.timer_name :: acc) [] t.timers)

(* Matured timers contribute occurrences to the upcoming line's block. *)
let fire_timers t =
  Queue.iter
    (fun timer ->
      timer.countdown <- timer.countdown - 1;
      if timer.countdown <= 0 then begin
        timer.countdown <- timer.period;
        t.stats.events <- t.stats.events + 1;
        let occ = Event_base.record t.eb ~etype:timer.etype ~oid:timer_oid in
        journal_append t ~tag:"ev" (Event_codec.occurrence_line occ)
      end)
    t.timers

let define_exn t spec =
  match define t spec with
  | Ok rule -> rule
  | Error (`Rule_error msg) -> invalid_arg msg

let log_src = Logs.Src.create "chimera.engine" ~doc:"Rule-processing engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

let ( let* ) = Result.bind

(* Applies one store operation and records the generated occurrences.
   The journal sees the operation (a [Store_codec] line, replayed against
   the store on recovery) and every occurrence (an [Event_codec] line
   carrying the exact instant, replayed against the event base). *)
let apply_operation t op : (Ident.Oid.t option, error) result =
  match Operation.apply t.store op with
  | Error e -> Error (e : Object_store.error :> error)
  | Ok emitted ->
      t.stats.operations <- t.stats.operations + 1;
      Obs.Metrics.incr c_operations;
      journal_append t ~tag:"op" (Store_codec.op_to_line op);
      List.iter
        (fun { Operation.etype; affected } ->
          t.stats.events <- t.stats.events + 1;
          let occ = Event_base.record t.eb ~etype ~oid:affected in
          journal_append t ~tag:"ev" (Event_codec.occurrence_line occ))
        emitted;
      Ok
        (match emitted with
        | [ { Operation.affected; _ } ] -> Some affected
        | _ -> None)

(* Runs [f] as one non-interruptible block (Section 2): on [Error] the
   store, the event base, the timer countdowns and the pending journal
   records are restored to the block start, so a failing operation takes
   its whole block with it; on [Ok] the block's journal records reach
   the file as one batch. *)
let guarded_block t f =
  let sp = Object_store.savepoint t.store in
  let instant = Event_base.now t.eb in
  let countdowns = List.map (fun tm -> (tm, tm.countdown)) (timer_list t) in
  let operations = t.stats.operations and events = t.stats.events in
  match f () with
  | Ok _ as ok ->
      (match t.journal with None -> () | Some j -> Journal.flush_block j);
      ok
  | Error _ as err ->
      Object_store.rollback_to t.store sp;
      Event_base.truncate_to t.eb ~instant;
      List.iter (fun (tm, c) -> tm.countdown <- c) countdowns;
      (match t.journal with None -> () | Some j -> Journal.drop_block j);
      (* The operation/event counters mirror applied state, so they
         rewind with it; blocks/lines count attempts and do not. *)
      t.stats.operations <- operations;
      t.stats.events <- events;
      t.stats.block_rollbacks <- t.stats.block_rollbacks + 1;
      Obs.Metrics.incr c_block_rollbacks;
      Log.debug (fun m -> m "block rolled back to instant %a" Time.pp instant);
      err

(* Executes a block of operations (a transaction line or one rule-action
   instantiation), then lets the Trigger Support look for new triggered
   rules.  Returns the object affected by each operation (scripts use the
   one of a trailing [create] for [as X] bindings). *)
let run_block t ops : (Ident.Oid.t option list, error) result =
  t.stats.blocks <- t.stats.blocks + 1;
  Obs.Metrics.incr c_blocks;
  let* affected =
    List.fold_left
      (fun acc op ->
        let* oids = acc in
        let* oid = apply_operation t op in
        Ok (oid :: oids))
      (Ok []) ops
  in
  Trigger_support.check_all t.config.trigger t.stats.trigger_stats t.eb
    t.wake t.rules;
  Ok (List.rev affected)

(* Executes a rule's action for every binding produced by its condition,
   threading environment extensions from binding creates.  The whole
   action instantiation is one block: a failing operation undoes it
   entirely. *)
let run_action_body t rule envs : (unit, error) result =
  let* () =
    List.fold_left
      (fun acc env ->
        let* () = acc in
        let* _env =
          List.fold_left
            (fun acc op ->
              let* env = acc in
              let* operation, extend =
                (Action.instantiate t.store env op
                  : (_, Condition.error) result
                  :> (_, error) result)
              in
              let* oid = apply_operation t operation in
              match oid with
              | Some oid -> Ok (extend oid)
              | None -> Ok env)
            (Ok env) rule.Rule.spec.action
        in
        Ok ())
      (Ok ()) envs
  in
  Trigger_support.check_all t.config.trigger t.stats.trigger_stats t.eb
    t.wake t.rules;
  Ok ()

let run_action t rule envs : (unit, error) result =
  let tok = Obs.Trace.begin_ "engine.action" ~detail:(Rule.name rule) in
  let result =
    guarded_block t @@ fun () ->
    t.stats.blocks <- t.stats.blocks + 1;
    Obs.Metrics.incr c_blocks;
    run_action_body t rule envs
  in
  Obs.Trace.end_into h_action tok;
  result

(* Considers the selected rule: evaluate its condition over its window,
   detrigger, and execute the action when the condition holds. *)
let consider t rule : (unit, error) result =
  let tok = Obs.Trace.begin_ "engine.consider" ~detail:(Rule.name rule) in
  let at = Event_base.probe_now t.eb in
  let after = Rule.formula_window_start rule ~tx_start:t.tx_start in
  let env = Ts.env t.eb ~window:(Window.make ~after ~upto:at) in
  let ctok = Obs.Trace.begin_ "engine.condition" ~detail:(Rule.name rule) in
  let condition =
    (Condition.eval t.store env ~at rule.Rule.spec.condition
      : (_, Condition.error) result
      :> (_, error) result)
  in
  Obs.Trace.end_into h_condition ctok;
  let result =
    let* envs = condition in
    t.stats.considerations <- t.stats.considerations + 1;
    Obs.Metrics.incr c_considerations;
    Rule.detrigger rule ~at;
    (* The consideration moved the rule's windows: re-arm it for the next
       wake independently of new arrivals (under endpoint detection its
       first post-consideration check can matter even without them). *)
    Trigger_support.Wake.mark t.wake rule;
    Log.debug (fun m ->
        m "considering %s at %a: %d binding(s)" (Rule.name rule) Time.pp at
          (List.length envs));
    if envs = [] then Ok ()
    else begin
      t.stats.executions <- t.stats.executions + 1;
      Obs.Metrics.incr c_executions;
      (match t.on_execution with
      | Some notify -> notify (Rule.name rule)
      | None -> ());
      if Hashtbl.mem t.watched (Rule.name rule) then
        t.tx_notifies <-
          {
            act_rule = Rule.name rule;
            act_at = at;
            act_bindings =
              List.map
                (List.map (fun (v, value) -> (v, Value.to_string value)))
                envs;
          }
          :: t.tx_notifies;
      run_action t rule envs
    end
  in
  Obs.Trace.end_ tok;
  result

let coupling_filter ~include_deferred rule =
  match rule.Rule.spec.coupling with
  | Rule.Immediate -> true
  | Rule.Deferred -> include_deferred

(* The rule-processing loop: select, consider, repeat until quiescent. *)
let process t ~include_deferred : (unit, error) result =
  let budget = ref t.config.max_rule_executions in
  let rec loop () =
    match
      Rule_table.select t.rules ~filter:(coupling_filter ~include_deferred)
    with
    | None -> Ok ()
    | Some rule ->
        if !budget <= 0 then Error (`Nontermination (Rule.name rule))
        else begin
          decr budget;
          let* () = consider t rule in
          loop ()
        end
  in
  loop ()

(* Mid-transaction retirement: the raw log must keep the whole
   transaction (the global horizon is pinned at [tx_start] so abort's
   truncation and EID rewind stay exact), but per-type posting prefixes
   behind every interested rule's formula-window start — consumption
   advances as consuming rules fire — are dead and can go. *)
let maybe_retire_in_tx t =
  if t.config.window_events then
    match t.config.retire_in_tx with
    | Some threshold when Event_base.live_size t.eb >= threshold ->
        let type_horizon =
          Trigger_support.type_horizons t.rules ~tx_start:t.tx_start
        in
        Event_base.retire_to t.eb ~horizon:t.tx_start ~type_horizon
    | Some _ | None -> ()

(* A transaction line's block covers its matured timer occurrences too:
   on failure the countdowns rewind with the events. *)
let line_block t ops =
  guarded_block t @@ fun () ->
  fire_timers t;
  run_block t ops

let execute_line t ops : (unit, error) result =
  t.stats.lines <- t.stats.lines + 1;
  Obs.Metrics.incr c_lines;
  let tok = Obs.Trace.begin_ "engine.line" in
  let result =
    let* _affected = line_block t ops in
    let* () = process t ~include_deferred:false in
    maybe_retire_in_tx t;
    Ok ()
  in
  Obs.Trace.end_into h_line tok;
  result

(* Like {!execute_line}, additionally reporting the object affected by each
   operation (before any rule runs). *)
let execute_line_affected t ops : (Ident.Oid.t option list, error) result =
  t.stats.lines <- t.stats.lines + 1;
  Obs.Metrics.incr c_lines;
  let tok = Obs.Trace.begin_ "engine.line" in
  let result =
    let* affected = line_block t ops in
    let* () = process t ~include_deferred:false in
    maybe_retire_in_tx t;
    Ok affected
  in
  Obs.Trace.end_into h_line tok;
  result

(* Records one external event occurrence as its own transaction line —
   the server's hot ingestion path (EVENT / binary frames).  No store
   operation is involved: the occurrence is journaled as an "ev" record
   (replayed into the event base independently of any "op"), the engine
   assigns the instant, and triggering/rule processing run exactly as
   after [execute_line].  The cascade runs after the recording block has
   closed, so a failing rule action rolls back only its own block: the
   occurrence stays recorded and journaled, as a failing [execute_line]
   leaves its operations applied, and [abort] removes it. *)
let ingest_event t ~etype ~oid : (unit, error) result =
  t.stats.lines <- t.stats.lines + 1;
  Obs.Metrics.incr c_lines;
  let tok = Obs.Trace.begin_ "engine.line" in
  let result =
    let* () =
      guarded_block t @@ fun () ->
      fire_timers t;
      t.stats.blocks <- t.stats.blocks + 1;
      Obs.Metrics.incr c_blocks;
      t.stats.events <- t.stats.events + 1;
      let occ = Event_base.record t.eb ~etype ~oid in
      journal_append t ~tag:"ev" (Event_codec.occurrence_line occ);
      Trigger_support.check_all t.config.trigger t.stats.trigger_stats t.eb
        t.wake t.rules;
      Ok ()
    in
    let* () = process t ~include_deferred:false in
    maybe_retire_in_tx t;
    Ok ()
  in
  Obs.Trace.end_into h_line tok;
  result

(* ------------------------------------------------- journal integration *)

(* Timers are journaled at every commit as "name TAB period TAB
   countdown" (the name is parsed from the right, so it may contain
   tabs); the last committed record per name wins on replay. *)
let timer_to_line tm =
  Printf.sprintf "%s\t%d\t%d" tm.timer_name tm.period tm.countdown

let timer_of_line line =
  let fail () = Error (Printf.sprintf "malformed timer record %S" line) in
  match String.rindex_opt line '\t' with
  | None -> fail ()
  | Some j when j = 0 -> fail ()
  | Some j -> (
      match String.rindex_from_opt line (j - 1) '\t' with
      | None -> fail ()
      | Some i -> (
          let name = String.sub line 0 i in
          let period = String.sub line (i + 1) (j - i - 1) in
          let countdown = String.sub line (j + 1) (String.length line - j - 1) in
          match (int_of_string_opt period, int_of_string_opt countdown) with
          | Some period, Some countdown when name <> "" && period > 0 ->
              Ok (name, period, countdown)
          | _ -> fail ()))

(* The records of a checkpoint: they must reconstruct the committed
   state exactly — live object rows (committed state carries no
   tombstones: the commit point purges them, so a base written
   mid-commit must drop the closing transaction's dead rows too), the
   OID generator, the clock position (no event record is needed: every
   rule window restarts at the commit instant), and the timers. *)
let checkpoint_records t =
  let record tag payload = { Journal.tag; payload } in
  record "ckpt.oidgen" (string_of_int (Object_store.oid_count t.store))
  :: record "ckpt.clock" (string_of_int (Time.to_int (Event_base.now t.eb)))
  :: List.filter_map
       (fun ((_, _, deleted, _) as row) ->
         if deleted then None
         else Some (record "ckpt.obj" (Store_codec.object_to_line row)))
       (Object_store.dump_objects t.store)
  @ List.map (fun tm -> record "timer" (timer_to_line tm)) (timer_list t)

(* Writes a checkpoint covering everything committed so far, seals the
   live segment behind it and GCs the segments both the checkpoint and
   the follower ack floor are done with.  Returns (covered commit
   sequence, segments removed).  Must run at a commit boundary — the
   seal requires it. *)
let write_checkpoint t j ck =
  let ckpt =
    { Checkpoint.commit_seq = Journal.commit_seq j; entries = checkpoint_records t }
  in
  let tok = Obs.Trace.begin_ "engine.checkpoint" ~detail:ck.ckpt_path in
  Checkpoint.write ~path:ck.ckpt_path ckpt;
  Obs.Trace.end_into h_ckpt tok;
  Obs.Metrics.incr c_ckpt_writes;
  Journal.seal j;
  let floor = min ckpt.Checkpoint.commit_seq (ck.gc_floor ()) in
  let removed = Journal.gc j ~upto:floor in
  ck.commits_since <- 0;
  ck.last_ckpt_s <- Monotime.now_s ();
  ck.last_floor <- floor;
  Obs.Metrics.set_gauge g_gc_floor floor;
  Log.info (fun m ->
      m "checkpoint at commit seq %d (%d segment(s) GC'd)"
        ckpt.Checkpoint.commit_seq removed);
  (ckpt.Checkpoint.commit_seq, removed)

(* Forces a checkpoint + seal + GC cycle now (the CHECKPOINT wire
   command / CLI path); resets the periodic countdowns. *)
let checkpoint_now t : (int * int, string) result =
  match (t.ckpt, t.journal) with
  | Some ck, Some j -> Ok (write_checkpoint t j ck)
  | _ -> Error "checkpointing is not enabled on this engine"

(* Runs at each commit boundary: fires on the commit-count cadence, the
   wall-clock cadence, or both — whichever is due first. *)
let maybe_checkpoint t =
  match (t.ckpt, t.journal) with
  | Some ck, Some j ->
      ck.commits_since <- ck.commits_since + 1;
      let count_due =
        match ck.every_commits with
        | Some n -> ck.commits_since >= n
        | None -> false
      in
      let time_due =
        match ck.every_seconds with
        | Some s -> Monotime.now_s () -. ck.last_ckpt_s >= s
        | None -> false
      in
      if count_due || time_due then ignore (write_checkpoint t j ck)
  | _ -> ()

(* Sliding-window retirement at a transaction boundary: every rule
   window restarts at [t.tx_start], so nothing at or before it is
   reachable — retire the whole live prefix in place (indices and EIDs
   stay stable). *)
let retire_at_boundary t =
  Event_base.retire_to t.eb ~horizon:t.tx_start
    ~type_horizon:(fun _ -> t.tx_start)

let rec commit t : (unit, error) result =
  let tok = Obs.Trace.begin_ "engine.commit" in
  let result = commit_body t in
  Obs.Trace.end_into h_commit tok;
  (match result with Ok () -> Obs.Metrics.incr c_commits | Error _ -> ());
  result

and commit_body t : (unit, error) result =
  (* Give deferred rules a final trigger check over the whole transaction,
     then process every triggered rule. *)
  Trigger_support.check_all t.config.trigger t.stats.trigger_stats t.eb
    t.wake t.rules;
  let* () = process t ~include_deferred:true in
  (match t.journal with
  | None -> ()
  | Some j ->
      Queue.iter
        (fun tm -> Journal.append j ~tag:"timer" (timer_to_line tm))
        t.timers;
      Journal.commit j);
  (* The commit point: committed history can never be rolled back.  The
     transaction's buffered activations become deliverable exactly here —
     never earlier, so an abort (or a commit that failed above) can never
     leak a phantom notify. *)
  if t.tx_notifies <> [] then begin
    t.committed_notifies <- t.tx_notifies @ t.committed_notifies;
    t.tx_notifies <- []
  end;
  Object_store.forget_undo t.store;
  let fresh_start = Event_base.probe_now t.eb in
  t.tx_start <- fresh_start;
  Rule_table.iter (fun rule -> Rule.reset rule ~tx_start:fresh_start) t.rules;
  (* The whole live window died with the windows: retire it in place —
     indices and EIDs stay stable across the engine's lifetime. *)
  if t.config.window_events then retire_at_boundary t;
  (* A checkpoint taken here needs no event records at all: the live
     window is empty, and every rule window starts at [fresh_start]. *)
  maybe_checkpoint t;
  begin_transaction t;
  Ok ()

(* ------------------------------------------------------ abort/recover *)

(* Restores the engine to the transaction start: store (undo log), event
   base (truncation — clock and EIDs rewind with it), trigger state,
   timers (countdowns back, mid-transaction definitions dropped).
   Observationally the transaction never ran. *)
let abort t =
  let tok = Obs.Trace.begin_ "engine.abort" in
  (match t.journal with None -> () | Some j -> Journal.abort j);
  Object_store.rollback_to t.store t.tx_sp;
  Event_base.truncate_to t.eb ~instant:t.tx_instant;
  Trigger_support.restore t.rules t.tx_trigger;
  (* Rules defined in the aborted transaction left the table; everything
     else moved its windows back.  Re-derive the wake index and mark all
     dirty — one sweep-equivalent wake, then delta-driven again. *)
  Trigger_support.Wake.rebuild t.wake t.rules;
  Queue.clear t.timers;
  Hashtbl.reset t.timer_index;
  List.iter
    (fun (tm, countdown) ->
      tm.countdown <- countdown;
      Hashtbl.add t.timer_index tm.timer_name ();
      Queue.add tm t.timers)
    t.tx_timers;
  (* Activations buffered by the aborted transaction never happened. *)
  t.tx_notifies <- [];
  t.stats.aborts <- t.stats.aborts + 1;
  Obs.Metrics.incr c_aborts;
  (* The savepoint state is unchanged — the transaction may be retried —
     but retake it so rollback internals start from a clean undo log. *)
  begin_transaction t;
  Obs.Trace.end_into h_abort tok;
  Log.info (fun m -> m "transaction aborted; back to %a" Time.pp t.tx_start)

type recovery = {
  recovered_commits : int;  (** commit markers replayed from the chain *)
  last_commit_seq : int;  (** global sequence of the last committed tx *)
  recovered_entries : int;
  dropped_entries : int;  (** intact but uncommitted records dropped *)
  dropped_bytes : int;  (** torn-tail bytes dropped *)
  booted_from_checkpoint : int option;
      (** the commit sequence of the checkpoint the boot started from;
          [None] on a full-chain replay *)
  first_segment : int option;
      (** lowest sealed segment still present ([None]: live file only) *)
  replayed_records : int;
      (** journal records replayed {e after} the checkpoint — the
          O(delta) recovery guard *)
}

(* Replays one journal record into the engine.  The progress counter
   ticks per record attempted, so a trace of a recovery shows how far the
   replay got even when it fails partway. *)
let replay_entry t (entry : Journal.entry) : (unit, string) result =
  Obs.Metrics.incr c_recover_entries;
  match entry.Journal.tag with
  | "op" -> (
      let* op = Store_codec.op_of_line entry.Journal.payload in
      (* OIDs are issued densely, so replaying the operations in order
         reproduces the original identifiers; the emitted occurrences
         are discarded — the "ev" records carry the exact instants. *)
      match Operation.apply t.store op with
      | Ok _emitted -> Ok ()
      | Error e -> Error (Fmt.str "cannot replay operation: %a" Object_store.pp_error e))
  | "ev" -> (
      let* etype, oid, timestamp =
        Event_codec.parse_occurrence_line entry.Journal.payload
      in
      match Event_base.record_at t.eb ~etype ~oid ~timestamp with
      | _occ -> Ok ()
      | exception Invalid_argument msg -> Error msg)
  | "timer" -> (
      let* name, period, countdown = timer_of_line entry.Journal.payload in
      match
        Queue.fold
          (fun acc tm -> if String.equal tm.timer_name name then Some tm else acc)
          None t.timers
      with
      | Some tm ->
          if tm.period <> period then
            Error (Printf.sprintf "timer %s: period mismatch on replay" name)
          else begin
            tm.countdown <- countdown;
            Ok ()
          end
      | None ->
          let etype = Event_type.external_ ~name ~class_name:"timer" in
          Hashtbl.add t.timer_index name ();
          Queue.add { timer_name = name; etype; period; countdown } t.timers;
          Ok ())
  | "ckpt.oidgen" -> (
      match int_of_string_opt entry.Journal.payload with
      | Some n -> (
          match Object_store.set_oid_count t.store n with
          | () -> Ok ()
          | exception Invalid_argument msg -> Error msg)
      | None -> Error "malformed ckpt.oidgen record")
  | "ckpt.clock" -> (
      match int_of_string_opt entry.Journal.payload with
      | Some n ->
          Time.Clock.advance_to (Event_base.clock t.eb) (Time.of_int n);
          Ok ()
      | None -> Error "malformed ckpt.clock record")
  | "ckpt.obj" -> (
      let* oid, class_name, deleted, attrs =
        Store_codec.object_of_line entry.Journal.payload
      in
      match Object_store.restore_object t.store ~oid ~class_name ~deleted ~attrs with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg)
  | other ->
      (* Unknown tags are future extensions, not corruption: skip. *)
      Log.warn (fun m -> m "recovery: skipping unknown record tag %s" other);
      Ok ()

(* Applies a batch of committed transactions and settles the engine on
   the resulting committed state, exactly as a completed [recover] would:
   undo log forgotten, rule windows restarted, wake index re-derived,
   fresh transaction begun.  This is the whole of the
   replay machinery behind both {!recover} (one batch, a fresh engine)
   and {!apply_replayed} (incremental batches on a replication
   follower). *)
let apply_committed_txs t txs : (unit, string) result =
  let* () =
    List.fold_left
      (fun acc tx ->
        let* () = acc in
        List.fold_left
          (fun acc entry ->
            let* () = acc in
            replay_entry t entry)
          (Ok ()) tx)
      (Ok ()) txs
  in
  (* The replayed state is committed state: start a fresh transaction
     exactly as [commit] would. *)
  Object_store.forget_undo t.store;
  let fresh_start = Event_base.probe_now t.eb in
  t.tx_start <- fresh_start;
  Rule_table.iter (fun rule -> Rule.reset rule ~tx_start:fresh_start) t.rules;
  (* The replay recorded events through the same listener feed, but the
     windows all moved: re-derive the wake index from scratch. *)
  Trigger_support.Wake.rebuild t.wake t.rules;
  (* The replayed history is unreachable, exactly as after a commit:
     retire it so a long-lived standby's event base stays bounded. *)
  if t.config.window_events then retire_at_boundary t;
  begin_transaction t;
  Ok ()

(* Incremental replay for a warm standby: applies committed transactions
   shipped from a primary's journal, in order, onto an engine that
   already holds the state of every earlier batch.  The engine must be
   quiescent (no client transaction in progress) — on a standby it only
   ever sees this call.  Counted into the recovery statistics so STATS
   on a follower shows replication progress. *)
let apply_replayed t txs : (unit, string) result =
  let* () = apply_committed_txs t txs in
  t.stats.recovered_commits <- t.stats.recovered_commits + List.length txs;
  t.stats.recovered_entries <-
    t.stats.recovered_entries
    + List.fold_left (fun acc tx -> acc + List.length tx) 0 txs;
  Ok ()

(* Rebuilds the state after the last committed transaction from a
   journal chain (sealed segments + live file), booting from the
   checkpoint beside it when one exists.  The engine must be fresh (same
   schema, rules and timers re-defined by the caller — definitions are
   program text, not journaled state) and holds exactly the committed
   state afterwards: uncommitted trailing records and a torn tail are
   dropped and reported.  With a checkpoint at commit sequence S, only
   transactions with a marker past S replay — O(delta) recovery — and
   the chain may legally start past segment 0 (GC retired the rest). *)
let recover t ~path : (recovery, string) result =
  if Object_store.oid_count t.store > 0 || Event_base.size t.eb > 0 then
    Error "Engine.recover: the engine already holds state"
  else
    Obs.Trace.with_span "engine.recover" ~detail:path @@ fun () ->
    let* chain = Journal.read_chain ~path in
    let replay = chain.Journal.chain_replay in
    let* ckpt =
      match Checkpoint.read_opt ~path:(Checkpoint.path_for path) with
      | Ok c -> Ok c
      | Error msg -> (
          (* A damaged checkpoint is fatal only when recovery needs it:
             with the whole chain present, a full replay still works. *)
          match chain.Journal.chain_first_segment with
          | None | Some 0 ->
              Log.warn (fun m ->
                  m "ignoring unreadable checkpoint (%s): full chain present"
                    msg);
              Ok None
          | Some _ -> Error msg)
    in
    let* () =
      match (ckpt, chain.Journal.chain_first_segment) with
      | None, Some first when first > 0 ->
          Error
            (Printf.sprintf
               "journal chain starts at segment %d but no checkpoint covers \
                the GC'd prefix"
               first)
      | _ -> Ok ()
    in
    let ckpt_seq, ckpt_entries =
      match ckpt with
      | None -> (0, [])
      | Some c -> (c.Checkpoint.commit_seq, c.Checkpoint.entries)
    in
    let* () =
      List.fold_left
        (fun acc entry ->
          let* () = acc in
          replay_entry t entry)
        (Ok ()) ckpt_entries
    in
    (* Replay only the suffix the checkpoint does not cover. *)
    let kept =
      List.filter_map
        (fun (tx, seq) -> if seq > ckpt_seq then Some tx else None)
        (List.combine replay.Journal.committed replay.Journal.committed_seqs)
    in
    let* () = apply_committed_txs t kept in
    let kept_entries =
      List.fold_left (fun acc tx -> acc + List.length tx) 0 kept
    in
    Obs.Metrics.add c_replayed_records kept_entries;
    let report =
      {
        recovered_commits = List.length kept;
        last_commit_seq = max replay.Journal.last_commit_seq ckpt_seq;
        recovered_entries = List.length ckpt_entries + kept_entries;
        dropped_entries = replay.Journal.uncommitted_entries;
        dropped_bytes = replay.Journal.torn_bytes;
        booted_from_checkpoint =
          (match ckpt with Some c -> Some c.Checkpoint.commit_seq | None -> None);
        first_segment = chain.Journal.chain_first_segment;
        replayed_records = kept_entries;
      }
    in
    t.stats.recovered_commits <- report.recovered_commits;
    t.stats.recovered_entries <- report.recovered_entries;
    t.stats.recovery_dropped_entries <- report.dropped_entries;
    t.stats.recovery_torn_bytes <- report.dropped_bytes;
    Log.info (fun m ->
        m
          "recovered %d transaction(s), %d record(s)%s; dropped %d \
           uncommitted record(s), %d torn byte(s)"
          report.recovered_commits report.recovered_entries
          (match report.booted_from_checkpoint with
          | Some seq -> Printf.sprintf " (booted from checkpoint at seq %d)" seq
          | None -> "")
          report.dropped_entries report.dropped_bytes);
    Ok report

let execute_line_exn t ops =
  match execute_line t ops with
  | Ok () -> ()
  | Error e -> failwith (Fmt.str "%a" pp_error e)

let commit_exn t =
  match commit t with
  | Ok () -> ()
  | Error e -> failwith (Fmt.str "%a" pp_error e)
