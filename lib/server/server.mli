(** The network front end of [chimera serve]: a single-threaded,
    non-blocking [Unix.select] reactor speaking {!Protocol} and driving a
    {!Session.Manager}.

    One {!poll} call is one reactor turn — accept, read, execute, write —
    and never blocks longer than its timeout, so the CLI loops it with a
    real timeout while tests (and the in-process bench) interleave it
    co-operatively with a client in the same thread.

    Admission control and backpressure: at [max_conns] further accepts
    are answered [ERR busy] and closed, and so is an accepted socket
    whose descriptor select(2) cannot watch (FD_SETSIZE, 1024 on Linux);
    a connection whose reply buffer exceeds [high_water] bytes stops
    being read (a slow reader throttles itself, never the server); a
    session queued behind a busy engine shard stops being read until the
    shard frees; and frames over [max_frame] lose framing —
    [ERR oversize], connection closed.

    Graceful drain ({!request_drain}, wired to SIGTERM/SIGINT by
    {!install_signal_handlers}): stop accepting, finish the lines already
    received, notify every client ([ERR shutdown draining]), flush, close,
    abort whatever stayed uncommitted, flush and close the journals —
    then {!poll} reports [Stopped] and {!run} returns. *)

open Chimera_event

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] binds an ephemeral port (see {!port}) *)
  engines : int;  (** independent engine shards *)
  domains : int option;
      (** worker domains executing the shards: [None] (default) spawns
          one per shard, [Some 0] keeps everything inline on the reactor
          thread, [Some m] spawns [min m engines] workers *)
  journal_dir : string option;  (** per-shard journals live here *)
  fsync : Journal.sync_policy;
  boot_script : string option;  (** rule-language source run on every shard *)
  max_conns : int;
  max_frame : int;
  max_pending : int;  (** per-session queued-command bound *)
  idle_timeout : float;  (** seconds; [<= 0.] disables *)
  high_water : int;  (** reply-buffer bytes that pause reading *)
  backlog : int;  (** listen(2) backlog *)
  follow : (string * int) option;
      (** [Some (host, port)] runs a warm standby: the server connects
          out to that primary, tails its per-shard journal stream
          (resynchronizing with exponential backoff when the link
          drops), applies committed transactions as they arrive, and
          refuses write verbs with [ERR standby] until promoted —
          by SIGUSR1 or a [PROMOTE] frame.  Promotion is warm (no
          replay): local segment copies become live journals, and the
          primary's address is taken over best-effort.  Requires
          [journal_dir]. *)
  repl_sync : bool;
      (** semi-synchronous replication (default [true]): a COMMIT reply
          is parked until every attached follower acknowledges that
          commit as durably local, so a commit the client saw
          acknowledged survives losing the primary.  The connection's
          later replies wait behind the parked one.  [false] ships
          asynchronously — faster, but the freshest acked commits can be
          lost with the primary. *)
  checkpoint_every : int option;
      (** bounded state: every N commits ([None], the default, takes
          {!Chimera_event.Checkpoint.default_every_commits}) each
          journaled shard writes a checkpoint beside its journal, seals
          the live segment, and GCs sealed segments behind
          [min checkpoint_seq ack_floor] — the ack floor pins segments a
          connected replication follower has not durably acked.  A fresh
          follower attaching (or a seal rotating the stream) receives
          the checkpoint as its segment base.  Requires [journal_dir]:
          {!create} refuses it otherwise. *)
  checkpoint_interval : float option;
      (** time-based checkpoint cadence in seconds, measured on the
          monotonic clock and checked at commit boundaries; combinable
          with [checkpoint_every] — whichever cadence is due first
          fires.  [None] (default) disables the time cadence.  Requires
          [journal_dir], like [checkpoint_every]. *)
  notify_queue : int;
      (** slow-consumer bound for live subscriptions (default [1024]):
          at most this many [NOTIFY] pushes wait per connection; beyond
          it the oldest queued push is shed and accounted to its
          subscription's next [NOTIFY_GAP], so a subscriber always sees
          either the notify or an explicit gap — never a silent hole.
          On drain (SIGTERM), every still-queued push is flushed or
          gapped before the goodbye. *)
}

val default_config : config

type t

val create : config -> (t, string) result
(** Binds and listens (non-blocking); shards, journals and the boot
    script run before the first accept. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was [0]. *)

val manager : t -> Session.Manager.t
val active_conns : t -> int
val draining : t -> bool

val standby : t -> bool
(** Running as a warm standby (created with [follow] and not yet
    promoted). *)

val request_promote : t -> unit
(** Signal-safe: the next {!poll} promotes a standby to a primary (no-op
    on a primary).  What SIGUSR1 is wired to. *)

type status = Running | Stopped

val poll : t -> timeout:float -> status
(** One reactor turn; [Stopped] once a requested drain has fully
    completed (sockets closed, journals flushed). *)

val run : t -> unit
(** {!poll} until [Stopped]. *)

val request_drain : t -> unit
(** Signal-safe: flips a flag the next {!poll} acts on. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT trigger {!request_drain}; SIGUSR1 triggers
    {!request_promote}. *)
