(** The write-ahead event journal: an append-only on-disk log of framed
    (tag, payload) records with commit/abort markers, length+CRC32
    framing (one record per line under a versioned header), a
    configurable fsync policy, and a chain of sealed segments that a
    checkpoint lets GC retire.

    The journal is payload-agnostic; the engine records operations as
    [Store_codec] lines and occurrences as [Event_codec] lines.  Records
    accumulate in a pending block buffer ({!append}) and reach the file
    either whole ({!flush_block}) or not at all ({!drop_block}) — block
    atomicity.  {!commit} closes a transaction with a durable marker;
    recovery ({!read}) replays committed transactions only and tolerates
    a torn tail (truncating at the first corrupt record and reporting
    what was dropped).

    Durability boundaries carry [Failpoint] sites — ["journal.write"]
    (torn-write capable), ["journal.fsync"] and the sealing and GC sites
    below — so recovery tests can crash at every one of them. *)

type sync_policy =
  | Per_write  (** fsync every flushed block and marker *)
  | Per_commit  (** fsync commit/abort markers only (the default) *)
  | Never  (** never fsync; flushes still reach the OS *)

type t

val create : ?sync:sync_policy -> path:string -> unit -> t
(** Starts a fresh journal at [path] (truncating any previous file,
    removing stale sealed segments and a stale checkpoint of a previous
    journal under the same path) and durably writes the header. *)

val open_append : ?sync:sync_policy -> path:string -> commit_seq:int -> unit -> t
(** Reopens an existing journal for appending — the promotion path of a
    replication follower whose local segment was written record-for-record
    from the primary's stream.  The header must already be on disk;
    [commit_seq] is the sequence the segment currently ends at, so later
    markers continue the numbering. *)

val append : t -> tag:string -> string -> unit
(** Buffers one record into the pending block.  Tags must be non-empty
    and tab/newline-free; payloads newline-free (raises
    [Invalid_argument] otherwise). *)

val flush_block : t -> unit
(** Writes the pending block to the file in one batch (fsyncs under
    {!Per_write}). *)

val drop_block : t -> unit
(** Discards the pending block — the journal side of block rollback. *)

val commit : t -> unit
(** Flushes the pending block and writes a commit marker carrying the
    next commit sequence number; fsyncs unless the policy is {!Never}. *)

val abort : t -> unit
(** Discards the pending block and writes a durable abort marker, so
    already-flushed records of the aborted transaction are skipped on
    replay. *)

(** {2 Sealing and segment GC}

    The live file is {!seal}ed under a numbered name
    ([<path>.seg-000000], [.seg-000001], …) and appending continues in a
    fresh live file, forming a chain a checkpoint lets {!gc} retire from
    the front — the only thing that bounds a journal on disk.  Failpoint
    sites: ["journal.seal.rename"], ["journal.seal.dirsync"],
    ["journal.gc.unlink"]. *)

val seal : t -> unit
(** Seals the live segment and continues at the same path.  Must be
    called at a commit boundary (raises [Invalid_argument] on a pending
    block); the sealed content is fsynced before the rename, so the
    segment always ends at a marker.  Does not write a marker or advance
    the commit sequence. *)

type sealed = {
  seg_seq : int;
  seg_path : string;
  seg_last_commit_seq : int;
      (** the commit sequence the segment ends at *)
}

val sealed_segments : t -> sealed list
(** Sealed segments this journal still holds, oldest first. *)

val gc : t -> upto:int -> int
(** Unlinks every sealed segment whose last commit sequence is at or
    below [upto] and returns how many were removed.  Callers pass
    [min checkpoint_seq follower_ack_floor]: a segment is retired only
    once a durable checkpoint stands for it and no connected follower
    still needs its bytes.  A crash mid-way leaves extra covered
    segments, never a hole recovery needs. *)

val sync : t -> unit
(** Forces an fsync regardless of policy. *)

val close : t -> unit
(** Flushes pending records and closes the file. *)

val abandon : t -> unit
(** Simulated process death: releases the descriptor {e without}
    flushing, losing bytes still in the channel buffer — test harness
    use after a [Failpoint.Crash]. *)

val commit_seq : t -> int
(** Commit markers written so far (monotone across seals). *)

val path : t -> string

type counters = {
  appends : int;  (** records accepted into pending blocks *)
  commits : int;  (** commit markers written *)
  syncs : int;  (** fsyncs issued *)
  bytes_written : int;  (** bytes written to the live segment *)
}

val counters : t -> counters

(** {2 Recovery} *)

type entry = { tag : string; payload : string }

type replay = {
  committed : entry list list;  (** committed transactions, in order *)
  committed_seqs : int list;
      (** the commit-marker sequence closing each group of [committed],
          in the same order — checkpoint-aware recovery filters on it *)
  last_commit_seq : int;  (** 0 when no transaction committed *)
  entries_committed : int;
  uncommitted_entries : int;  (** intact records after the last marker *)
  torn_bytes : int;  (** bytes dropped at the first torn/corrupt record *)
}

val read : path:string -> (replay, string) result
(** Scans a journal file, accepting the longest prefix of intact
    records: committed transactions are returned for replay, trailing
    uncommitted records and the torn tail are reported as dropped.
    [Error] on an unreadable file or a foreign/garbled header. *)

type chain = {
  chain_replay : replay;  (** the concatenated replay of every file *)
  chain_files : string list;  (** files read, oldest first, live last *)
  chain_first_segment : int option;
      (** lowest sealed segment number present; [None] when the live
          file stands alone.  Past 0 means GC retired the oldest
          segments — their content must come from a checkpoint. *)
}

val read_chain : path:string -> (chain, string) result
(** Reads the sealed-segment chain at [path] (ascending) followed by the
    live file.  Tolerates a chain whose leading segments were GC'd and a
    missing live file (crash between a seal's rename and the fresh
    header), but errors on a hole in the middle or a corrupt header. *)

val crc32 : string -> int
(** The checksum used by the framing (exposed for tests). *)

val encode_record : tag:string -> string -> string
(** One framed, newline-terminated record line — what {!append} writes.
    Exposed for the checkpoint codec and for synthesizing replication
    base records from a checkpoint. *)

val entry_of_line : string -> (entry, string) result
(** Parses one framed record line (without its newline) back into an
    entry, verifying length and CRC32 — what a replication follower runs
    on every record it receives before applying it. *)

(** {2 Replication: tailing and raw sinks} *)

(** Live follow of a journal segment for replication shipping.  A tailer
    reads the file the path currently names and emits raw record lines
    {e only up to and including the last commit/abort marker} — records
    of a still-open transaction (and any torn tail) are held back until
    their marker lands.  A {!seal} (the writer renaming the live segment
    aside and starting a fresh file at the path, right after a
    checkpoint) is detected by the inode behind the path changing: the
    abandoned descriptor is drained through its last marker, held-back
    records are dropped (a seal happens at a commit boundary, so there
    are none to lose), and a {!Tail.Segment} event tells the consumer to
    reset — the checkpoint beside the journal is the new segment's base
    — before the new segment's records follow. *)
module Tail : sig
  type event =
    | Segment of { generation : int }
        (** a new segment generation begins: reset downstream state *)
    | Records of string
        (** raw newline-terminated record lines, ending at a marker *)

  type t

  val create : ?chunk:int -> path:string -> unit -> t
  (** [chunk] (default 32 KiB, min 1 KiB) bounds the bytes per
      [Records] event, split only at record boundaries. *)

  val poll : t -> event list
  (** One non-blocking turn: detect a seal, read what the writer
      flushed, return shippable events (possibly []).  Never raises; an
      unreadable or missing file simply yields nothing this turn. *)

  val generation : t -> int
  (** Segment generations opened so far; 0 before the first open. *)

  val close : t -> unit
end

(** The follower's local copy of a shipped segment: raw record bytes
    append exactly as received — the file is byte-identical to the
    primary's segment, so {!read} and [chimera recover] replay it
    unchanged — under the standard header, fsynced per policy so an ack
    can vouch for durability. *)
module Sink : sig
  type t

  val create : sync:sync_policy -> path:string -> unit -> t
  (** Truncates [path] to a fresh header (durably). *)

  val reset : t -> unit
  (** A new segment generation began upstream: restart from a fresh
      header. *)

  val write : t -> string -> unit
  (** Appends raw record bytes and flushes; fsyncs unless the policy is
      {!Never}. *)

  val sync : t -> unit
  val close : t -> unit
  val path : t -> string
  val bytes_written : t -> int
end
