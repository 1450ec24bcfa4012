(** Engine checkpoints: a point-in-time serialization of the committed
    state (object store dump, OID generator, logical clock, pending
    timers) covering every journal transaction up to a commit sequence,
    so the segments behind it can be GC'd and recovery boots from the
    checkpoint plus the O(delta) journal suffix.

    The file reuses the journal's CRC32 framing under a
    [# chimera-checkpoint v1] header: a meta record (the covered commit
    sequence), the engine's replayable records ([ckpt.obj],
    [ckpt.oidgen], [ckpt.clock], [timer]), and an end record.  Written
    atomically (tmp + fsync + rename + parent dirsync), so the live path
    always names a complete checkpoint.  Failpoint sites: ["ckpt.write"]
    (torn-write capable), ["ckpt.fsync"], ["ckpt.rename"],
    ["ckpt.dirsync"]. *)

type t = {
  commit_seq : int;
      (** the journal commit sequence this checkpoint covers: recovery
          replays only transactions with a greater marker *)
  entries : Journal.entry list;  (** replayable records, in order *)
}

val path_for : string -> string
(** The conventional checkpoint path beside a journal:
    [<journal>.ckpt]. *)

val default_every_commits : int
(** The commit cadence a journaled [chimera serve] shard or
    [chimera run] checkpoints at when none is given (1000).  A cycle
    costs about six fsyncs and one pass over the live store — under 1%
    of the fsyncs the default per-commit policy already pays for the
    same commits — and it bounds what the journal holds, and recovery
    replays, past the checkpoint to about that many transactions. *)

val write : path:string -> t -> unit
(** Atomically (re)writes the checkpoint at [path]. *)

val read : path:string -> (t, string) result
(** Reads and fully validates a checkpoint; any damage is an error (the
    atomic write protocol never leaves a partial file at the live
    path). *)

val read_opt : path:string -> (t option, string) result
(** [Ok None] when no checkpoint exists at [path]. *)

val to_wire : t -> string
(** The checkpoint as journal wire bytes: its records framed as the
    journal writes them, closed by a commit marker at [commit_seq] —
    shipped by the replication reactor as the base of a freshly sealed
    segment so followers replay to the checkpointed state. *)
