(** Session management for [chimera serve]: per-connection sessions
    multiplexed onto [--engines N] independent engine shards, executed
    inline or on worker domains.

    Each shard is one ordinary single-threaded engine (wrapped in the
    script interpreter) with its own write-ahead journal; a session is
    pinned to the shard its key hashes to — FNV-1a over the client's
    HELLO session key when one is given ([HELLO <version> <key>]), over
    the decimal session id otherwise.  Transactions serialize per shard:
    the first [LINE] of a session acquires its shard, [COMMIT] /
    [ABORT] release it, and commands of other sessions on the same shard
    queue (FIFO, bounded by [max_pending]) until the shard frees — the
    caller stops reading from a queued session, which is the protocol's
    admission control.  An orderly or disorderly close of a session that
    holds a shard aborts its uncommitted transaction.

    One dispatcher takes each session's commands in arrival order and
    answers them in that order: engine-bound commands become jobs, at
    most [max_pending] of them in flight per session (the [window] the
    greeting advertises), and the rest is answered once nothing is in
    flight.  Where jobs run is the only difference between the
    runtimes.  With [domains = 0] (the default here) they run
    synchronously on the calling thread, and every reply comes back from
    the call that fed the command.  With [domains = M > 0], M worker
    domains run them — shard [i] belongs to worker [i mod M] — fed
    through bounded per-worker mailboxes; replies then surface
    asynchronously from {!pump}, which the caller runs whenever
    {!wakeup_fd} signals (or once per reactor turn). *)

open Chimera_event

module Manager : sig
  type t

  (** What the caller (the reactor) must do next: send a reply frame on a
      session's connection, flush-and-close it, — for [Committed] —
      either send the commit reply immediately or park it until every
      attached replication follower acknowledges the commit sequence
      (semi-synchronous replication), or — for [Notify] — frame a
      subscription push (text or binary per [binary]) onto the session's
      bounded notify queue.

      [Notify] events for a commit are emitted before the commit's own
      [Reply]/[Committed] event, in commit order per subscription; an
      aborted transaction emits none.  Together with the caller's
      bounded-queue accounting this is the delivery guarantee: every
      committed activation of a live subscription is either delivered or
      explicitly counted into a [NOTIFY_GAP]. *)
  type event =
    | Reply of int * Protocol.reply
    | Close of int
    | Committed of { sid : int; shard : int; seq : int; reply : Protocol.reply }
    | Notify of {
        sid : int;
        sub : int;
        binary : bool;
        at : int;
        bindings : (string * string) list list;
      }

  val create :
    engines:int ->
    ?domains:int ->
    ?journal_dir:string ->
    ?fsync:Journal.sync_policy ->
    ?boot_script:string ->
    ?max_pending:int ->
    ?extra_stats:(unit -> string) ->
    ?standby:bool ->
    ?checkpoint_every:int ->
    ?checkpoint_interval:float ->
    unit ->
    (t, string) result
  (** [engines] must be positive.  [domains] (default [0]) is the worker
      domain count: [0] executes inline on the caller's thread, [M > 0]
      spawns [min M engines] worker domains at creation.  [journal_dir]
      (created if missing) gives every shard a write-ahead journal at
      [<dir>/shard-<i>.journal]; [boot_script] is rule-language source
      executed (and committed) on every shard before the first
      connection — the conventional way to predefine schema and rules.
      [extra_stats] is appended to every [STATS] reply (the server
      contributes its connection counters through it); with worker
      domains it is called from them, so it must be domain-safe.

      [standby] (default [false]) creates a replication follower: shards
      run only the boot script's {e definitions} (the boot transaction's
      operations arrive from the primary's stream), carry a raw
      {!Journal.Sink} instead of an engine-attached journal, refuse
      [LINE]/[COMMIT]/[ABORT] with [ERR standby], and always run inline
      ([domains] is ignored).  Feed the stream through {!repl_reset} and
      {!repl_apply}; {!promote} turns the standby into a primary.

      Journaled shards checkpoint every [checkpoint_every] commits
      (positive; default {!Chimera_event.Checkpoint.default_every_commits})
      and, when [checkpoint_interval] (positive seconds, checked at
      commit boundaries) is given, on that time cadence too — whichever
      is due first: the engine writes a checkpoint beside its journal,
      seals the live segment and GCs segments behind
      [min checkpoint_seq ack_floor] (see {!set_gc_floor}).  This cycle
      is what bounds a shard's journal.  A standby picks the settings up
      at promotion. *)

  val engines : t -> int

  val domains : t -> int
  (** Worker domains actually running; [0] in inline mode. *)

  val set_gc_floor : t -> shard:int -> int -> unit
  (** Publishes the shard's replication ack floor — the lowest commit
      sequence every attached follower has durably acknowledged, or
      [max_int] when no follower is attached.  The reactor owns the
      follower bookkeeping and calls this on every ack, attach and
      detach; segment GC (on the shard's worker domain) never retires a
      sealed segment above the floor.  Domain-safe. *)

  val standby : t -> bool
  (** The manager is a replication follower (created with [~standby:true]
      and not yet promoted). *)

  val boot_seqs : t -> int array
  (** Each shard's journal commit sequence right after boot — read before
      any worker domain spawns, so the caller has a race-free baseline to
      track per-shard commit sequences from [Committed] events. *)

  val open_session : t -> int
  (** Registers a fresh session (in the greeting state) and returns its id. *)

  val session_count : t -> int
  (** Open sessions. *)

  val subscription_count : t -> int
  (** Live subscriptions across all sessions — the [sub.active] gauge.
      Eagerly-registered (in-flight) SUBs count; a disconnected
      session's subscriptions stop counting immediately, even while
      their rules await the shard's next transaction boundary to leave
      the engine. *)

  val shard_of_session : t -> int -> int

  val in_transaction : t -> int -> bool
  (** The session currently holds its shard (open transaction). *)

  val blocked : t -> int -> bool
  (** The session has commands queued (behind a busy shard, or behind its
      own in-flight pipeline) or [max_pending] jobs in flight: the caller
      should stop reading from its connection until events release it. *)

  val idle : t -> int -> bool
  (** Nothing queued and nothing in flight for this session — its reply
      stream is complete as of now.  What a draining server polls before
      it closes a connection. *)

  val on_payload : t -> int -> string -> event list
  (** Feed one decoded frame payload from a session.  Parse errors and
      protocol-state violations come back as [ERR] replies; engine-bound
      commands may queue (empty event list) and their replies surface
      from the [on_payload]/[disconnect] call that released the shard —
      or, with worker domains, from a later {!pump}. *)

  val on_binary : t -> int -> string -> event list
  (** Feed one binary EVENT/BATCH frame payload (raw bytes, tag byte
      included) from a session.  The reactor only runs an O(1) shape
      check; the per-record decode and the engine ingestion run in the
      job (on the shard's worker domain, when there are any).  Each
      frame yields exactly one reply in pipeline order — for a BATCH,
      [TRIGGERED] with every executed rule in order, or the first error
      (preceding records stay applied and the transaction stays open).
      Event-type ids resolve through the session's [ETYPE] table as of
      this call. *)

  val disconnect : t -> int -> event list
  (** The connection is gone (EOF, error, timeout, drain): aborts the
      session's open transaction, drops its queue, and wakes waiters of
      its shard — their replies are the returned events.  Idempotent. *)

  val wakeup_fd : t -> Unix.file_descr option
  (** With worker domains, a self-pipe read end that becomes readable
      when completions are waiting: add it to the reactor's select read
      set and call {!pump} on wakeup.  [None] in inline mode. *)

  val pump : t -> event list
  (** Collect finished worker jobs: their replies, plus whatever woke up
      behind them (a completed COMMIT wakes the shard's waiters).  Cheap
      when there is nothing to do; inline mode always returns []. *)

  val shutdown : t -> unit
  (** Drain epilogue: aborts every open transaction, stops and joins the
      worker domains, flushes and closes every journal.  The manager
      accepts no further commands. *)

  val journal_paths : t -> string list
  (** The live journal path of every journaled shard — on a standby, the
      path of each shard's local segment copy. *)

  (** {2 Standby (replication follower) operations}

      Valid only while {!standby} holds; each returns [Error] otherwise. *)

  val repl_reset : t -> shard:int -> (unit, string) result
  (** A [REPL_SEGMENT] arrived: a new segment generation begins upstream
      (initial attach, or the primary sealed behind a checkpoint).  Restarts
      the shard's engine fresh (boot definitions re-run) and truncates
      its local segment copy; the records that follow rebuild the state. *)

  val repl_apply :
    t -> shard:int -> head_seq:int -> string -> (int, string) result
  (** A [REPL_RECORDS] batch arrived: writes the raw bytes durably to the
      shard's local segment copy, applies the committed transactions they
      close, and returns the applied commit sequence — what the follower
      acknowledges with [REPL_ACK].  [head_seq] is the primary's reported
      commit sequence (kept for lag accounting).  [Error] on a corrupt
      record or a failed replay: the follower's state can no longer be
      trusted and it must resynchronize (reset every shard, reconnect —
      a fresh replication session ships the segment from its start). *)

  val repl_seqs : t -> (int * int) array
  (** Per shard: [(applied, head)] — the last commit sequence applied
      locally and the primary's last reported one.  Their difference is
      the replication lag in commits. *)

  val promote : t -> (unit, string) result
  (** The standby becomes a primary, warm: each shard's local segment
      copy — byte-identical to the primary's journal — reopens for
      appending at the applied sequence and attaches to the engine; no
      replay.  Write verbs are accepted from here on. *)
end
