(** The rule-processing engine: Block Executor plus the transaction loop
    of Section 2.

    A transaction is a sequence of transaction lines (non-interruptible
    blocks).  After every block the Trigger Support runs; then the
    highest-priority triggered rule with a matching coupling mode is
    considered (condition evaluated set-oriented), detriggered, and its
    action — when the condition held — executes as a new block whose
    events can trigger further rules.  Deferred rules wait for commit. *)

open Chimera_util
open Chimera_event
open Chimera_store

type error = [ Condition.error | `Nontermination of string ]

val pp_error : Format.formatter -> error -> unit

type config = {
  trigger : Trigger_support.config;
  max_rule_executions : int;
      (** guard against non-terminating rule cascades *)
  compact_at_commit : int option;
      (** drop the event log at commit once it exceeds this size (sound:
          every rule window restarts at the commit instant); [None]
          disables compaction.  Skipped while checkpointing is enabled
          (retirement and segment GC bound state instead).  Default:
          [Some 100_000]. *)
  window_events : bool;
      (** sliding event-base windows: at commit (and mid-transaction past
          [retire_in_tx]) retire occurrences no rule window can reach
          again, in place — log indices and event identifiers stay
          stable, unlike compaction.  Behaviour-preserving
          (differential-tested against an unwindowed twin).  Default:
          [true]. *)
  retire_in_tx : int option;
      (** mid-transaction retirement threshold: once the live log holds
          this many occurrences, every transaction line ends with a
          per-type horizon computation (consuming rules advance their
          windows as they fire) and prefix retirement.  [None] retires
          only at commit.  Default: [Some 10_000]. *)
}

val default_config : config

type stats = {
  trigger_stats : Trigger_support.stats;
  mutable lines : int;  (** user transaction lines executed *)
  mutable blocks : int;  (** blocks (lines plus rule actions) *)
  mutable considerations : int;
  mutable executions : int;  (** considerations whose condition held *)
  mutable operations : int;
  mutable events : int;
  mutable aborts : int;  (** transactions rolled back via {!abort} *)
  mutable block_rollbacks : int;  (** failed blocks undone atomically *)
  mutable journal_appends : int;  (** records accepted by the journal *)
  mutable journal_commits : int;  (** commit markers (incl. rotations) *)
  mutable journal_syncs : int;  (** fsyncs issued by the journal *)
  mutable journal_rotations : int;
  mutable recovered_commits : int;  (** committed transactions replayed *)
  mutable recovered_entries : int;  (** journal records replayed *)
  mutable recovery_dropped_entries : int;
      (** intact but uncommitted records dropped on recovery *)
  mutable recovery_torn_bytes : int;  (** torn-tail bytes dropped *)
}

type t

val create : ?config:config -> Schema.t -> t
val store : t -> Object_store.t
val event_base : t -> Event_base.t

val rules : t -> Rule_table.t

val statistics : t -> stats
(** Engine counters. *)

val tx_start : t -> Time.t

val define : t -> Rule.spec -> (Rule.t, [> `Rule_error of string ]) result

val define_exn : t -> Rule.spec -> Rule.t
(** Raises [Invalid_argument] on rejection. *)

(** {2 Dynamic rules and live activations (subscriptions)} *)

type activation = {
  act_rule : string;  (** rule name, as defined *)
  act_at : Time.t;  (** the consideration instant ([ts] evaluation point) *)
  act_bindings : (string * string) list list;
      (** one binding list per satisfying environment, variables in
          declaration order, values printed with [Value.to_string] *)
}
(** One committed trigger activation of a watched rule. *)

val define_dynamic : t -> Rule.spec -> (Rule.t, [> `Rule_error of string ]) result
(** Like {!define}, for a rule added while the engine is live.  Must be
    called at a transaction boundary; on success the transaction
    savepoint is refreshed so a later {!abort} cannot silently drop the
    rule again. *)

val undefine : t -> string -> (unit, [> `Rule_error of string ]) result
(** Drops a rule by name and rebuilds the wake index.  Returns [Error]
    (never raises) when the name is unknown or already dropped.  Must be
    called at a transaction boundary; the savepoint is refreshed so a
    later {!abort} cannot resurrect the rule. *)

val watch_rule : t -> string -> unit
(** Marks a rule as watched: each consideration whose condition holds
    buffers an {!activation} in the current transaction. *)

val unwatch_rule : t -> string -> unit
(** Stops watching a rule and discards its activations buffered in the
    current (uncommitted) transaction.  Already-committed activations
    stay deliverable. *)

val drain_activations : t -> activation list
(** Returns (and clears) the committed activations of watched rules, in
    commit order.  Buffered activations become deliverable exactly at
    the commit point — an aborted transaction contributes none — so the
    sequence of drained activations is precisely the committed execution
    log of the watched rules. *)

val execute_line : t -> Operation.t list -> (unit, error) result
(** Executes one transaction line, then processes immediate rules to
    quiescence. *)

val execute_line_affected :
  t -> Operation.t list -> (Ident.Oid.t option list, error) result
(** Like {!execute_line}, additionally reporting the object affected by
    each operation (before any rule runs); scripts use it for [as X]
    bindings. *)

val ingest_event :
  t -> etype:Chimera_event.Event_type.t -> oid:Ident.Oid.t -> (unit, error) result
(** Records one external event occurrence as its own transaction line —
    the server's hot ingestion path (the [EVENT] verb and the binary
    frames).  No store operation runs: the occurrence is journaled as an
    ["ev"] record, the engine assigns the instant, and immediate rules
    process to quiescence exactly as after {!execute_line}.  On [Error]
    the occurrence (and any matured timer events) roll back with the
    block. *)

val commit : t -> (unit, error) result
(** Processes deferred (and remaining immediate) rules, then starts a
    fresh transaction: rule windows restart, flags clear.  With a journal
    attached, the commit is made durable first — a commit marker under the
    journal's fsync policy, or a checkpointed segment rotation when the
    commit compacted the event log. *)

val abort : t -> unit
(** Rolls the current transaction back to its start: the store (via the
    undo log), the event base (truncation — clock and identifier
    generators rewind with it), the trigger state, the timers (countdowns
    restored, mid-transaction definitions dropped).
    Observationally equivalent to the transaction never having run; a
    durable abort marker is journaled when a journal is attached.  The
    engine is immediately usable for the next transaction. *)

val execute_line_exn : t -> Operation.t list -> unit
val commit_exn : t -> unit

val define_timer : t -> name:string -> period_lines:int -> Chimera_event.Event_type.t
(** Registers a HiPAC-style periodic clock event, simulated on the
    engine's logical time: it matures every [period_lines] transaction
    lines and contributes an external occurrence (on the reserved timer
    pseudo-object) to that line's block.  Returns the event type rules
    subscribe to.  Registration is O(1); raises [Invalid_argument] on a
    non-positive period or a duplicate timer name (two timers of the same
    name would share an event type and double-fire per line). *)

val timer_names : t -> string list

val set_on_execution : t -> (string -> unit) -> unit
(** Registers the (single) execution listener: called with the rule name
    each time a consideration's condition holds, immediately before the
    action block runs.  The network server uses it to report the rules a
    transaction line executed ([TRIGGERED ...]) back to the client. *)

val clear_on_execution : t -> unit

(** {2 Durability: write-ahead journal and crash recovery} *)

val set_journal : t -> Chimera_event.Journal.t -> unit
(** Attaches a write-ahead journal; every applied operation and recorded
    occurrence is journaled from here on (blocks atomically, transactions
    closed by commit/abort markers).  Attach at transaction start —
    normally right after {!create} or {!recover} — so the journal sees
    whole transactions. *)

val journal : t -> Chimera_event.Journal.t option

(** {2 Bounded state: checkpoints, segment GC, sliding windows} *)

val enable_checkpoints :
  t ->
  ?path:string ->
  ?every_commits:int ->
  ?every_seconds:float ->
  ?gc_floor:(unit -> int) ->
  unit ->
  unit
(** Turns on periodic checkpointing (requires an attached journal and at
    least one cadence; raises [Invalid_argument] otherwise).  On a
    commit-count cadence ([every_commits]), a wall-clock cadence
    ([every_seconds], measured on {!Chimera_util.Monotime}), or both —
    whichever is due first, checked at commit boundaries only — the
    engine atomically writes a checkpoint of the committed state to
    [path] (default: {!Chimera_event.Checkpoint.path_for} of the journal
    path), seals the live journal segment, and GCs every sealed segment
    at or below [min checkpoint_seq (gc_floor ())] — [gc_floor] is the
    replication ack floor, pinning segments a connected follower still
    needs ([max_int] when unreplicated).  While enabled,
    [compact_at_commit] is skipped: sliding-window retirement bounds the
    event base and the checkpoint cycle bounds the journal chain. *)

val gc_floor : t -> int option
(** The journal-GC floor the last checkpoint cycle applied —
    [min checkpoint_seq (replication ack floor)] — or [None] before the
    first cycle (or with checkpointing off).  Also published as the
    ["gc.floor"] gauge. *)

val checkpoint_now : t -> (int * int, string) result
(** Forces a checkpoint + seal + GC cycle immediately; must be called at
    a transaction boundary (between a commit and the first line of the
    next transaction).  Returns (covered commit sequence, segments
    GC'd); [Error] when checkpointing is not enabled. *)

val checkpoint_path : t -> string option
(** The checkpoint file path, when checkpointing is enabled. *)

val checkpoint_records : t -> Chimera_event.Journal.entry list
(** The replayable records a checkpoint of the current committed state
    carries (object rows, OID generator, clock, timers) — exposed for
    the offline [chimera checkpoint] path, which writes a checkpoint
    beside a recovered journal without opening it for appending. *)

type recovery = {
  recovered_commits : int;  (** commit markers replayed from the chain *)
  last_commit_seq : int;  (** global sequence of the last committed tx *)
  recovered_entries : int;
  dropped_entries : int;  (** intact but uncommitted records dropped *)
  dropped_bytes : int;  (** torn-tail bytes dropped *)
  booted_from_checkpoint : int option;
      (** commit sequence of the checkpoint the boot started from;
          [None] on a full-chain replay *)
  first_segment : int option;
      (** lowest sealed segment still present ([None]: live file only) *)
  replayed_records : int;
      (** journal records replayed after the checkpoint — the O(delta)
          recovery guard (also on the ["journal.replayed_records"]
          counter) *)
}

val apply_replayed :
  t -> Chimera_event.Journal.entry list list -> (unit, string) result
(** Incremental replay for a warm standby: applies committed
    transactions (shipped from a primary's journal, in order) onto an
    engine already holding the state of every earlier batch, through the
    same machinery as {!recover}, and settles on the resulting committed
    state (fresh transaction, windows restarted).  The engine must be
    quiescent — no client transaction in progress. *)

val recover : t -> path:string -> (recovery, string) result
(** Rebuilds the state after the last committed transaction from a
    journal chain (sealed segments plus the live file), booting from the
    checkpoint beside it when one exists: checkpoint records restore the
    committed base state, then only transactions with a commit marker
    past the checkpoint's sequence replay — O(delta) recovery — so the
    chain may legally start past segment 0 (GC retired the rest).
    Without a checkpoint the whole chain replays: operations against the
    store (OIDs are issued densely, so identifiers reproduce exactly),
    occurrences against the event base at their original instants.  The
    engine must be fresh; schema, rules and timers are program text, not
    journaled state — re-define them before calling (recovered timer
    countdowns override defined ones).  Trailing uncommitted records and
    a torn tail are tolerated, dropped and reported; a GC'd chain with a
    missing or unreadable checkpoint is an error. *)
