(* The write-ahead event journal: an append-only on-disk log of framed
   records with commit/abort markers, a configurable fsync policy and a
   chain of sealed segments that checkpoints let GC retire.

   The journal is payload-agnostic: records are (tag, payload) strings —
   the engine writes operations with [Store_codec] lines and occurrences
   with [Event_codec] lines — framed one per line as

       <len> TAB <crc32> TAB <tag> [TAB <payload>] NL

   under a versioned header.  The framing makes torn tails detectable:
   recovery accepts the longest prefix of intact records, replays the
   transactions closed by a commit marker, and reports exactly what was
   dropped (uncommitted records and torn bytes).

   Durability boundaries are instrumented with [Failpoint] sites
   ("journal.write", "journal.fsync", "journal.seal.rename",
   "journal.seal.dirsync", "journal.gc.unlink"), so the recovery property
   tests can crash at every one of them, including mid-write (torn
   records). *)

open Chimera_util
module Obs = Chimera_obs.Obs

(* Durability is where latency hides: every fsync and block write is
   timed into a log-scale histogram, so a snapshot attributes journal
   time without a profiler attached. *)
let c_appends = Obs.Metrics.counter "journal.appends"
let c_commits = Obs.Metrics.counter "journal.commits"
let c_syncs = Obs.Metrics.counter "journal.syncs"
let c_seals = Obs.Metrics.counter "journal.seals"
let c_gc_segments = Obs.Metrics.counter "gc.segments"
let h_fsync = Obs.Metrics.histogram "journal.fsync_ns"
let h_append = Obs.Metrics.histogram "journal.append_ns"

let header = "# chimera-journal v1"

(* ------------------------------------------------------------- crc32 *)

(* Standard reflected CRC-32 (polynomial 0xEDB88320), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------- types *)

type sync_policy = Per_write | Per_commit | Never

type counters = {
  appends : int;
  commits : int;
  syncs : int;
  bytes_written : int;
}

type sealed = {
  seg_seq : int;
  seg_path : string;
  seg_last_commit_seq : int;
      (** the commit sequence the segment ends at: everything in it is
          covered by a checkpoint at or past this seq *)
}

type t = {
  path : string;
  sync : sync_policy;
  mutable oc : out_channel;
  mutable pending : (string * string) list;  (** newest first, not yet on disk *)
  mutable commit_seq : int;
  mutable seg_seq : int;  (** the next seal's segment number *)
  mutable sealed : sealed list;  (** oldest first, still on disk *)
  mutable appends : int;
  mutable commits : int;
  mutable syncs : int;
  mutable bytes_written : int;
  mutable closed : bool;
}

let counters t =
  {
    appends = t.appends;
    commits = t.commits;
    syncs = t.syncs;
    bytes_written = t.bytes_written;
  }

let commit_seq t = t.commit_seq
let path t = t.path

(* ---------------------------------------------------- physical layer *)

let encode_record ~tag payload =
  let body = if payload = "" then tag else tag ^ "\t" ^ payload in
  Printf.sprintf "%d\t%d\t%s\n" (String.length body) (crc32 body) body

(* One write boundary.  A failpoint landing here persists a strict prefix
   of the bytes (flushed, so the torn record is on disk) and crashes. *)
let write_string t s =
  (match Failpoint.cut "journal.write" ~len:(String.length s) with
  | None -> output_string t.oc s
  | Some keep ->
      output_string t.oc (String.sub s 0 keep);
      flush t.oc;
      Failpoint.crash "journal.write");
  t.bytes_written <- t.bytes_written + String.length s

let fsync_channel oc = Unix.fsync (Unix.descr_of_out_channel oc)

(* Fsync of the parent directory: file creation and rename are directory
   mutations, durable only once the *directory* inode is forced down.
   Without it a crash after a seal's rename can recover the old segment
   name — or no file at all — even though the rename "happened".
   Best-effort on filesystems whose directories refuse fsync. *)
let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* One fsync boundary: a failpoint landing here crashes after the write
   reached the channel but before it was forced to disk. *)
let fsync t =
  Failpoint.hit "journal.fsync";
  let t0 = Obs.start_timer () in
  flush t.oc;
  fsync_channel t.oc;
  Obs.observe_since h_fsync t0;
  Obs.Metrics.incr c_syncs;
  t.syncs <- t.syncs + 1

let sync t =
  let t0 = Obs.start_timer () in
  flush t.oc;
  fsync_channel t.oc;
  Obs.observe_since h_fsync t0;
  Obs.Metrics.incr c_syncs;
  t.syncs <- t.syncs + 1

(* ------------------------------------------------------------ opening *)

let open_segment path =
  open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path

(* Sealed segments sit beside the live file as [<path>.seg-<NNNNNN>]. *)
let segment_path path seq = Printf.sprintf "%s.seg-%06d" path seq

(* The sealed segments currently beside [path], ascending by number — a
   chain may start past 0 once GC has retired its oldest segments. *)
let list_segment_files path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".seg-" in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if String.length name > plen && String.sub name 0 plen = prefix
             then
               match int_of_string_opt (String.sub name plen (String.length name - plen)) with
               | Some seq -> Some (seq, Filename.concat dir name)
               | None -> None
             else None)
      |> List.sort compare

let create ?(sync = Per_commit) ~path () =
  (* [Open_trunc] semantics extend to the whole chain: creating a journal
     here starts it from nothing, so stale sealed segments — and a stale
     checkpoint, whose covered sequence belongs to the wiped history and
     would make recovery silently skip the new journal's records — of a
     previous journal under the same path must not pollute a later chain
     read.  The [".ckpt"] suffix is [Checkpoint.path_for]'s convention;
     [Checkpoint] sits above this module, so the name is repeated here. *)
  List.iter
    (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())
    (list_segment_files path);
  (try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ());
  let t =
    {
      path;
      sync;
      oc = open_segment path;
      pending = [];
      commit_seq = 0;
      seg_seq = 0;
      sealed = [];
      appends = 0;
      commits = 0;
      syncs = 0;
      bytes_written = 0;
      closed = false;
    }
  in
  write_string t (header ^ "\n");
  fsync t;
  (* The segment's directory entry must be as durable as its header. *)
  fsync_dir path;
  t

(* Reopens an existing journal for appending — the promotion path of a
   replication follower, whose local segment was written record-for-record
   from the primary's stream.  The header must already be on disk; the
   caller supplies the commit sequence the segment ends at (it tracked it
   while applying), so later markers continue the numbering. *)
let open_append ?(sync = Per_commit) ~path ~commit_seq () =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  {
    path;
    sync;
    oc;
    pending = [];
    commit_seq;
    seg_seq = 0;
    sealed = [];
    appends = 0;
    commits = 0;
    syncs = 0;
    bytes_written = 0;
    closed = false;
  }

let check_open t = if t.closed then invalid_arg "Journal: already closed"

(* --------------------------------------------------- logical records *)

let valid_tag tag =
  tag <> ""
  && not (String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') tag)

let append t ~tag payload =
  check_open t;
  if not (valid_tag tag) then invalid_arg "Journal.append: malformed tag";
  if String.contains payload '\n' || String.contains payload '\r' then
    invalid_arg "Journal.append: payload contains a newline";
  t.pending <- (tag, payload) :: t.pending;
  Obs.Metrics.incr c_appends;
  t.appends <- t.appends + 1

(* Writes the pending records of the current block in one batch; the
   block either reaches the file whole or (on rollback) not at all. *)
let flush_block t =
  check_open t;
  match t.pending with
  | [] -> ()
  | pending ->
      let t0 = Obs.start_timer () in
      let buf = Buffer.create 256 in
      List.iter
        (fun (tag, payload) -> Buffer.add_string buf (encode_record ~tag payload))
        (List.rev pending);
      t.pending <- [];
      write_string t (Buffer.contents buf);
      flush t.oc;
      Obs.observe_since h_append t0;
      if t.sync = Per_write then fsync t

let drop_block t =
  check_open t;
  t.pending <- []

let write_marker t tag payload =
  write_string t (encode_record ~tag payload);
  flush t.oc;
  match t.sync with
  | Per_write | Per_commit -> fsync t
  | Never -> ()

let commit t =
  check_open t;
  flush_block t;
  write_marker t "commit" (string_of_int (t.commit_seq + 1));
  t.commit_seq <- t.commit_seq + 1;
  Obs.Metrics.incr c_commits;
  t.commits <- t.commits + 1

(* An abort discards the pending block and records a durable marker, so
   flushed records of the aborted transaction are skipped on replay even
   once a later transaction commits. *)
let abort t =
  check_open t;
  t.pending <- [];
  write_marker t "abort" ""

(* ------------------------------------------------- sealing and GC *)

(* Closes the live segment under a numbered name and continues appending
   to a fresh live file at the same path: history accumulates as a chain
   [<path>.seg-0 .. seg-N, <path>] whose prefix a checkpoint lets {!gc}
   retire.  Called at a commit boundary (no pending block, no open
   transaction), so the sealed segment ends at a marker.  The sealed
   content is fsynced before the rename; a crash between the rename and
   the fresh header leaves a readable chain with no live file, which
   {!read_chain} tolerates. *)
let seal t =
  check_open t;
  if t.pending <> [] then invalid_arg "Journal.seal: pending block";
  Obs.Trace.with_span "journal.seal" (fun () ->
      flush t.oc;
      fsync_channel t.oc;
      Obs.Metrics.incr c_syncs;
      t.syncs <- t.syncs + 1;
      let sealed_path = segment_path t.path t.seg_seq in
      Failpoint.hit "journal.seal.rename";
      Sys.rename t.path sealed_path;
      Failpoint.hit "journal.seal.dirsync";
      fsync_dir t.path;
      close_out_noerr t.oc;
      t.oc <- open_segment t.path;
      write_string t (header ^ "\n");
      fsync t;
      fsync_dir t.path;
      t.sealed <-
        t.sealed
        @ [ { seg_seq = t.seg_seq; seg_path = sealed_path;
              seg_last_commit_seq = t.commit_seq } ];
      t.seg_seq <- t.seg_seq + 1;
      Obs.Metrics.incr c_seals)

let sealed_segments t = t.sealed

(* Unlinks every sealed segment wholly behind [upto] — the caller passes
   [min checkpoint_seq follower_ack_floor], so a segment is removed only
   once a durable checkpoint stands for it *and* no connected follower
   still needs its bytes.  Returns the number removed.  A crash mid-way
   leaves extra covered segments behind, never a hole recovery needs. *)
let gc t ~upto =
  check_open t;
  let retired, kept =
    List.partition (fun s -> s.seg_last_commit_seq <= upto) t.sealed
  in
  List.iter
    (fun s ->
      Failpoint.hit "journal.gc.unlink";
      try Sys.remove s.seg_path with Sys_error _ -> ())
    retired;
  if retired <> [] then fsync_dir t.path;
  t.sealed <- kept;
  Obs.Metrics.add c_gc_segments (List.length retired);
  List.length retired

let close t =
  if not t.closed then begin
    flush_block t;
    flush t.oc;
    close_out_noerr t.oc;
    t.closed <- true
  end

(* A simulated process death: releases the descriptor *without* flushing,
   so bytes still in the channel buffer are lost exactly as they would be
   when a process is killed.  Test harness use. *)
let abandon t =
  if not t.closed then begin
    (try Unix.close (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ -> ());
    t.closed <- true
  end

(* ------------------------------------------------------------ reading *)

type entry = { tag : string; payload : string }

type replay = {
  committed : entry list list;
  committed_seqs : int list;
      (** the commit-marker sequence closing each group of [committed],
          in the same order — checkpoint-aware recovery filters on it *)
  last_commit_seq : int;
  entries_committed : int;
  uncommitted_entries : int;
  torn_bytes : int;
}

let read_all path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Ok
        (Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic)))

let split_body body =
  match String.index_opt body '\t' with
  | None -> { tag = body; payload = "" }
  | Some i ->
      {
        tag = String.sub body 0 i;
        payload = String.sub body (i + 1) (String.length body - i - 1);
      }

(* Parses the record starting at [pos]; [None] when the bytes from [pos]
   on are not one intact record (torn or corrupt tail). *)
let parse_record content pos =
  match String.index_from_opt content pos '\n' with
  | None -> None
  | Some nl -> (
      let line = String.sub content pos (nl - pos) in
      match String.split_on_char '\t' line with
      | len_text :: crc_text :: rest -> (
          let body = String.concat "\t" rest in
          match (int_of_string_opt len_text, int_of_string_opt crc_text) with
          | Some len, Some crc
            when len = String.length body && crc = crc32 body ->
              Some (split_body body, nl + 1)
          | _ -> None)
      | _ -> None)

let read ~path =
  match read_all path with
  | Error msg -> Error msg
  | Ok content ->
      let total = String.length content in
      let header_line = header ^ "\n" in
      let header_len = String.length header_line in
      if total >= header_len && String.sub content 0 header_len = header_line
      then begin
        let committed = ref [] in
        let committed_seqs = ref [] in
        let current = ref [] in
        let entries_committed = ref 0 in
        let last_commit_seq = ref 0 in
        let pos = ref header_len in
        let stop = ref false in
        while not !stop do
          match parse_record content !pos with
          | None -> stop := true
          | Some (entry, next) -> (
              pos := next;
              match entry.tag with
              | "commit" -> (
                  match int_of_string_opt entry.payload with
                  | None -> stop := true  (* corrupt marker: truncate here *)
                  | Some seq ->
                      committed := List.rev !current :: !committed;
                      committed_seqs := seq :: !committed_seqs;
                      entries_committed :=
                        !entries_committed + List.length !current;
                      current := [];
                      last_commit_seq := seq)
              | "abort" -> current := []
              | _ -> current := entry :: !current)
        done;
        Ok
          {
            committed = List.rev !committed;
            committed_seqs = List.rev !committed_seqs;
            last_commit_seq = !last_commit_seq;
            entries_committed = !entries_committed;
            uncommitted_entries = List.length !current;
            torn_bytes = total - !pos;
          }
      end
      else if
        (* A crash during the very first header write leaves a prefix of
           the header: an empty journal with a torn tail, not garbage. *)
        total < header_len && String.sub header_line 0 total = content
      then
        Ok
          {
            committed = [];
            committed_seqs = [];
            last_commit_seq = 0;
            entries_committed = 0;
            uncommitted_entries = 0;
            torn_bytes = total;
          }
      else Error (Printf.sprintf "%s: missing chimera-journal header" path)

(* ------------------------------------------------------- chain reading *)

type chain = {
  chain_replay : replay;  (** the concatenated replay of every file *)
  chain_files : string list;  (** files read, oldest first, live last *)
  chain_first_segment : int option;
      (** lowest sealed segment number present; [None] when the live file
          stands alone.  A value past 0 means GC retired the chain's
          oldest segments — everything before it must come from a
          checkpoint. *)
}

let empty_replay =
  {
    committed = [];
    committed_seqs = [];
    last_commit_seq = 0;
    entries_committed = 0;
    uncommitted_entries = 0;
    torn_bytes = 0;
  }

let concat_replays a b =
  {
    committed = a.committed @ b.committed;
    committed_seqs = a.committed_seqs @ b.committed_seqs;
    last_commit_seq =
      (if b.last_commit_seq > 0 then b.last_commit_seq else a.last_commit_seq);
    entries_committed = a.entries_committed + b.entries_committed;
    uncommitted_entries = a.uncommitted_entries + b.uncommitted_entries;
    torn_bytes = a.torn_bytes + b.torn_bytes;
  }

(* Reads the whole chain at [path]: sealed segments in ascending order,
   then the live file.  Tolerates a chain whose leading segments were
   GC'd (it may start at any number) and a missing live file (a crash
   between a seal's rename and the fresh header), but not a hole or a
   corrupt header in the middle.  Sealed segments end at a marker, so
   uncommitted/torn tails can only stem from the live file. *)
let read_chain ~path =
  let segs = list_segment_files path in
  let live_exists = Sys.file_exists path in
  if segs = [] && not live_exists then
    Error (Printf.sprintf "%s: no such journal" path)
  else begin
    let rec check_contiguous = function
      | (a, _) :: ((b, pb) :: _ as rest) ->
          if b <> a + 1 then
            Error (Printf.sprintf "%s: missing segment %d before %s" path (a + 1) pb)
          else check_contiguous rest
      | _ -> Ok ()
    in
    match check_contiguous segs with
    | Error _ as e -> e
    | Ok () -> (
        let rec fold acc files = function
          | [] ->
              if live_exists then
                match read ~path with
                | Error _ as e -> e
                | Ok r ->
                    Ok
                      {
                        chain_replay = concat_replays acc r;
                        chain_files = List.rev (path :: files);
                        chain_first_segment =
                          (match segs with [] -> None | (s, _) :: _ -> Some s);
                      }
              else
                Ok
                  {
                    chain_replay = acc;
                    chain_files = List.rev files;
                    chain_first_segment =
                      (match segs with [] -> None | (s, _) :: _ -> Some s);
                  }
          | (_, p) :: rest -> (
              match read ~path:p with
              | Error _ as e -> e
              | Ok r -> fold (concat_replays acc r) (p :: files) rest)
        in
        fold empty_replay [] segs)
  end

(* Parses one framed record line (without its newline) back into an
   entry, verifying length and CRC — what a replication follower runs on
   every record it receives before applying it. *)
let entry_of_line line =
  match String.split_on_char '\t' line with
  | len_text :: crc_text :: rest -> (
      let body = String.concat "\t" rest in
      match (int_of_string_opt len_text, int_of_string_opt crc_text) with
      | Some len, Some crc when len = String.length body && crc = crc32 body ->
          Ok (split_body body)
      | _ -> Error (Printf.sprintf "corrupt record frame %S" line))
  | _ -> Error (Printf.sprintf "malformed record line %S" line)

(* ------------------------------------------------------------ tailing *)

(* Live follow of a journal for replication shipping.  The tailer reads
   the segment the path currently names, ships whole record lines only
   up to and including the last commit/abort marker — a flushed but
   still-open transaction (and any torn tail) is held back until its
   marker lands — and follows seals: when the inode behind the path
   changes (the writer sealed the live segment aside and started a fresh
   one after a checkpoint), the old descriptor is drained through its
   last marker, held-back records of an abandoned transaction are
   dropped, and the stream restarts with a [Segment] event that tells
   the follower to reset onto the checkpoint. *)
module Tail = struct
  type event =
    | Segment of { generation : int }
    | Records of string
        (** raw record lines, newline-terminated, ending at a marker *)

  type t = {
    t_path : string;
    chunk : int;  (** max bytes per [Records] event *)
    mutable fd : Unix.file_descr option;
    mutable ino : int;
    mutable generation : int;
    mutable partial : Buffer.t;  (** bytes after the last newline read *)
    mutable held_rev : string list;  (** complete lines awaiting a marker *)
    mutable header_seen : bool;
    read_buf : Bytes.t;
  }

  let create ?(chunk = 32 * 1024) ~path () =
    {
      t_path = path;
      chunk = max 1024 chunk;
      fd = None;
      ino = -1;
      generation = 0;
      partial = Buffer.create 256;
      held_rev = [];
      header_seen = false;
      read_buf = Bytes.create 8192;
    }

  let generation t = t.generation

  let close t =
    (match t.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    t.fd <- None

  (* The record tag sits after the second tab of the line; commit and
     abort tags are the transaction boundaries shipping keys on.  The
     line arrives newline-terminated, and a payload-less marker (abort)
     ends "...\tabort\n" — the terminator must come off before the tag
     compare or the tag would swallow it. *)
  let is_marker_line line =
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line
    in
    match String.index_opt line '\t' with
    | None -> false
    | Some i -> (
        match String.index_from_opt line (i + 1) '\t' with
        | None -> false
        | Some j ->
            let rest = String.sub line (j + 1) (String.length line - j - 1) in
            let tag =
              match String.index_opt rest '\t' with
              | None -> rest
              | Some k -> String.sub rest 0 k
            in
            String.equal tag "commit" || String.equal tag "abort")

  (* Moves everything held (oldest first) into ship chunks of at most
     [t.chunk] bytes, splitting only at record boundaries. *)
  let ship_held t acc =
    let lines = List.rev t.held_rev in
    t.held_rev <- [];
    let buf = Buffer.create 1024 in
    let flush_buf () =
      if Buffer.length buf > 0 then begin
        acc := Records (Buffer.contents buf) :: !acc;
        Buffer.clear buf
      end
    in
    List.iter
      (fun line ->
        if Buffer.length buf > 0 && Buffer.length buf + String.length line > t.chunk
        then flush_buf ();
        Buffer.add_string buf line)
      lines;
    flush_buf ()

  (* Consumes the complete lines of [data]; the trailing partial line (no
     newline yet) stays buffered for the next read. *)
  let feed t data acc =
    Buffer.add_string t.partial data;
    let s = Buffer.contents t.partial in
    let n = String.length s in
    let rec lines pos =
      match String.index_from_opt s pos '\n' with
      | None ->
          Buffer.clear t.partial;
          Buffer.add_substring t.partial s pos (n - pos)
      | Some nl ->
          let line = String.sub s pos (nl - pos + 1) in
          (if not t.header_seen then
             (* The first line of a segment is the version header, not a
                record: consumed here, re-written by the follower. *)
             t.header_seen <- true
           else begin
             t.held_rev <- line :: t.held_rev;
             if is_marker_line line then ship_held t acc
           end);
          lines (nl + 1)
    in
    lines 0

  let drain_fd t fd acc =
    let rec go () =
      match Unix.read fd t.read_buf 0 (Bytes.length t.read_buf) with
      | 0 -> ()
      | n ->
          feed t (Bytes.sub_string t.read_buf 0 n) acc;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()

  let begin_segment t fd ino acc =
    t.fd <- Some fd;
    t.ino <- ino;
    t.generation <- t.generation + 1;
    Buffer.clear t.partial;
    t.held_rev <- [];
    t.header_seen <- false;
    acc := Segment { generation = t.generation } :: !acc

  let try_open t acc =
    match Unix.openfile t.t_path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd -> (
        match (Unix.fstat fd).Unix.st_ino with
        | ino -> begin_segment t fd ino acc
        | exception Unix.Unix_error _ -> (
            try Unix.close fd with Unix.Unix_error _ -> ()))

  (* One poll turn: detect a seal, read what the writer has flushed,
     return the shippable events.  Never blocks, never raises. *)
  let poll t =
    let acc = ref [] in
    (* A seal: the path now names a different inode than the open fd. *)
    (match t.fd with
    | Some fd -> (
        match (Unix.stat t.t_path).Unix.st_ino with
        | ino when ino <> t.ino ->
            (* Drain the abandoned segment through its last marker; a
               held-back open transaction is superseded by the
               checkpoint the new segment starts from. *)
            drain_fd t fd acc;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            t.fd <- None;
            t.held_rev <- [];
            Buffer.clear t.partial
        | _ -> ()
        | exception Unix.Unix_error _ -> ())
    | None -> ());
    if t.fd = None then try_open t acc;
    (match t.fd with Some fd -> drain_fd t fd acc | None -> ());
    List.rev !acc
end

(* --------------------------------------------------------- raw sink *)

(* The follower's local copy of a shipped segment: raw record bytes are
   appended exactly as received (so the file is byte-identical to the
   primary's segment and {!read} / [chimera recover] replay it
   unchanged), under the same header, fsynced per policy so a REPL_ACK
   can vouch for durability. *)
module Sink = struct
  type sink = {
    s_path : string;
    s_sync : sync_policy;
    mutable s_oc : out_channel;
    mutable s_bytes : int;
  }

  type t = sink

  let open_fresh path =
    let oc = open_segment path in
    output_string oc (header ^ "\n");
    flush oc;
    fsync_channel oc;
    fsync_dir path;
    oc

  let create ~sync ~path () =
    { s_path = path; s_sync = sync; s_oc = open_fresh path; s_bytes = 0 }

  let path s = s.s_path
  let bytes_written s = s.s_bytes

  (* A new segment generation began on the primary: restart the local
     copy from a fresh header. *)
  let reset s =
    close_out_noerr s.s_oc;
    s.s_oc <- open_fresh s.s_path;
    s.s_bytes <- 0

  let write s data =
    output_string s.s_oc data;
    flush s.s_oc;
    s.s_bytes <- s.s_bytes + String.length data;
    match s.s_sync with
    | Per_write | Per_commit -> fsync_channel s.s_oc
    | Never -> ()

  let sync s =
    flush s.s_oc;
    fsync_channel s.s_oc

  let close s =
    flush s.s_oc;
    close_out_noerr s.s_oc
end
