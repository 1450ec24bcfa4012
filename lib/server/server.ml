(* The select reactor: sockets, buffers and scheduling for the wire
   protocol; every engine decision lives in [Session.Manager], every
   byte-level concern lives here.

   One poll = one turn: acts on a requested drain, selects, accepts,
   reads (decoding and executing complete frames as they surface),
   writes, and enforces the idle timeout.  All I/O is non-blocking; the
   only place the process sleeps is inside [Unix.select] itself.

   Flow control is read-side: a connection is excluded from the read set
   while its reply buffer (replies held behind a gated commit included)
   is above the high-water mark (slow reader) or while its session
   queues behind a busy engine shard or a full window (admission).  The
   kernel socket buffers then push the backpressure to the client. *)

open Chimera_event
module Obs = Chimera_obs.Obs

let log_src = Logs.Src.create "chimera.server" ~doc:"Network event-ingestion server"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_accepts = Obs.Metrics.counter "server.accepts"
let c_rejects = Obs.Metrics.counter "server.rejects"
let c_frames_in = Obs.Metrics.counter "server.frames_in"
let c_frames_out = Obs.Metrics.counter "server.frames_out"
let c_bytes_in = Obs.Metrics.counter "server.bytes_in"
let c_bytes_out = Obs.Metrics.counter "server.bytes_out"
let c_drains = Obs.Metrics.counter "server.drains"
let g_active = Obs.Metrics.gauge "server.active_conns"
let h_frame = Obs.Metrics.histogram "server.frame_ns"
let c_repl_bytes = Obs.Metrics.counter "repl.bytes_shipped"
let c_repl_acks = Obs.Metrics.counter "repl.acks"
let c_repl_parked = Obs.Metrics.counter "repl.commits_parked"
let c_repl_promotions = Obs.Metrics.counter "repl.promotions"
let g_repl_peers = Obs.Metrics.gauge "repl.peers"
let c_sub_notifies = Obs.Metrics.counter "sub.notifies"
let c_sub_gaps = Obs.Metrics.counter "sub.gaps"
let c_sub_dropped = Obs.Metrics.counter "sub.dropped"
let g_sub_active = Obs.Metrics.gauge "sub.active"

type config = {
  host : string;
  port : int;
  engines : int;
  domains : int option;
      (** worker domains: [None] = one per shard, [Some 0] = inline
          single-reactor mode, [Some m] = m workers *)
  journal_dir : string option;
  fsync : Journal.sync_policy;
  boot_script : string option;
  max_conns : int;
  max_frame : int;
  max_pending : int;
  idle_timeout : float;
  high_water : int;
  backlog : int;
  follow : (string * int) option;
      (** run as a warm standby tailing this primary's journal stream;
          writes are refused until promotion (SIGUSR1 or PROMOTE) *)
  repl_sync : bool;
      (** semi-synchronous replication: park each COMMIT reply until
          every attached follower acknowledges its commit sequence, so
          an acked commit survives losing the primary (default); [false]
          acknowledges locally and ships asynchronously *)
  checkpoint_every : int option;
      (** bounded state: every N commits each journaled shard writes a
          checkpoint, seals its live segment and GCs segments behind
          [min checkpoint_seq ack_floor]; [None] takes
          [Checkpoint.default_every_commits] *)
  checkpoint_interval : float option;
      (** time-based checkpoint cadence in seconds (checked at commit
          boundaries, on the monotonic clock); combinable with
          [checkpoint_every] — whichever is due first fires *)
  notify_queue : int;
      (** slow-consumer bound: at most this many subscription pushes wait
          per connection; beyond it the oldest queued notify is shed and
          counted into a [NOTIFY_GAP] for its subscription *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    engines = 1;
    domains = None;
    journal_dir = None;
    fsync = Journal.Per_commit;
    boot_script = None;
    max_conns = 256;
    max_frame = Protocol.default_max_frame;
    max_pending = 64;
    idle_timeout = 30.;
    high_water = 256 * 1024;
    backlog = 64;
    follow = None;
    repl_sync = true;
    checkpoint_every = None;
    checkpoint_interval = None;
    notify_queue = 1024;
  }

(* An attached replication follower, on the primary side: one journal
   tailer per shard reading the live segment, and the highest commit
   sequence the follower has acknowledged as durably local — what the
   semi-synchronous gate compares parked commits against. *)
type repl_peer = {
  tails : Journal.Tail.t array;
  tail_paths : string array;
      (** the journal path each tailer follows — the checkpoint beside
          it synthesizes the base of a fresh segment generation *)
  acked : int array;  (** per shard, last REPL_ACKed commit sequence *)
}

type conn = {
  fd : Unix.file_descr;
  sid : int;
  mutable inbuf : Bytes.t;
  mutable in_len : int;  (** buffered undecoded bytes, at offset 0 *)
  outbuf : Buffer.t;
      (** per-turn staging: every reply of a turn coalesces here, then
          seals into one [outq] chunk at flush time — one [write] per
          turn on the happy path, the userspace analogue of [writev] *)
  outq : string Queue.t;  (** sealed chunks awaiting the socket, FIFO *)
  mutable queued_bytes : int;  (** total bytes across [outq] *)
  mutable out_off : int;  (** bytes of the [outq] head already written *)
  mutable last_activity : float;
  mutable close_after_flush : bool;
  mutable dead : bool;
  mutable repl : repl_peer option;
      (** the connection upgraded into a replication stream *)
  notifyq : (int * string) Queue.t;
      (** subscription pushes awaiting this connection — (sub, payload)
          — bounded by [notify_queue], oldest shed first on overflow *)
  mutable notifyq_len : int;
  gaps : (int, int * bool) Hashtbl.t;
      (** per subscription, (shed count, binary): the [NOTIFY_GAP] owed
          before the subscription's next delivered notify *)
  held : ((int * int) option * string) Queue.t;
      (** reply payloads in arrival order, held from a COMMIT reply the
          replication gate parked onward; a [(shard, seq)] gate must be
          acked by every follower before its reply — and everything
          behind it — goes out *)
  mutable held_bytes : int;  (** total payload bytes across [held] *)
}

(* The follower's outbound link to its primary: a tiny client-side state
   machine driven from the same select loop. *)
type fstream = {
  sfd : Unix.file_descr;
  mutable s_inbuf : Bytes.t;
  mutable s_in_len : int;
  s_outbuf : Buffer.t;  (** REPL_ACK frames awaiting write *)
  mutable s_out_off : int;
  mutable s_greeted : bool;  (** REPL_HELLO answered *)
}

type follower_link =
  | F_idle of { retry_at : float }  (** backing off before (re)connect *)
  | F_connecting of { fd : Unix.file_descr }  (** connect() in flight *)
  | F_streaming of fstream

type follower = {
  f_host : string;
  f_port : int;
  f_backoff : Chimera_util.Backoff.t;
  f_lag : Obs.Metrics.gauge array;
      (** per-shard replication lag in commits: ["repl.lag.shard<i>"] *)
  mutable f_link : follower_link;
}

type t = {
  config : config;
  mutable listen_fd : Unix.file_descr option;
  bound_port : int;
  mgr : Session.Manager.t;
  conns : (int, conn) Hashtbl.t;  (** by session id *)
  mutable drain_requested : bool;  (** set from signal context *)
  mutable draining : bool;
  mutable stopped : bool;
  read_chunk : Bytes.t;
  shard_seq : int array;
      (** per-shard commit sequence, the reactor's race-free view
          (boot baseline plus [Committed] events) *)
  g_ack_floors : Obs.Metrics.gauge array;
      (** per-shard ["repl.ack_floor.shard<i>"]: the lowest commit
          sequence every attached follower has durably acked, [-1] while
          no follower gates anything *)
  mutable follower : follower option;  (** standby mode until promotion *)
  mutable promote_requested : bool;  (** set from signal context *)
  mutable takeover_fd : Unix.file_descr option;
      (** post-promotion listener on the old primary's address *)
}

(* The server's contribution to a STATS reply: its own counter block,
   read back from the registry (enabled or not, the handles exist). *)
let counters_text () =
  Printf.sprintf
    "server: %d accept(s), %d reject(s), %d active, %d frame(s) in, %d \
     frame(s) out, %d byte(s) in, %d byte(s) out"
    (Obs.Metrics.counter_value c_accepts)
    (Obs.Metrics.counter_value c_rejects)
    (Obs.Metrics.gauge_value g_active)
    (Obs.Metrics.counter_value c_frames_in)
    (Obs.Metrics.counter_value c_frames_out)
    (Obs.Metrics.counter_value c_bytes_in)
    (Obs.Metrics.counter_value c_bytes_out)
  ^ Printf.sprintf
      "\nsubs: %d active, %d notify(s) delivered, %d gap frame(s), %d \
       notify(s) shed"
      (Obs.Metrics.gauge_value g_sub_active)
      (Obs.Metrics.counter_value c_sub_notifies)
      (Obs.Metrics.counter_value c_sub_gaps)
      (Obs.Metrics.counter_value c_sub_dropped)

let resolve_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          Error (Printf.sprintf "cannot resolve %s" host)
      | entry -> Ok entry.Unix.h_addr_list.(0)
      | exception Not_found -> Error (Printf.sprintf "cannot resolve %s" host))

let create config =
  let ( let* ) = Result.bind in
  (* A peer that vanished can RST mid-write; the write must surface as
     EPIPE for {!try_flush} to close the one connection, not raise
     SIGPIPE and kill the whole process.  Set here, not only in
     {!install_signal_handlers}, so in-process reactors (tests, the
     bench) are covered too. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let standby = config.follow <> None in
  let domains =
    match config.domains with None -> config.engines | Some m -> m
  in
  let* () =
    if standby && config.journal_dir = None then
      Error "--follow requires --journal (an ack must vouch for durability)"
    else Ok ()
  in
  (* A checkpoint cadence is a journal setting: without a journal there
     is nothing to checkpoint, and silently ignoring it hides a typo. *)
  let* () =
    match config with
    | { journal_dir = None; checkpoint_every = Some _; _ } ->
        Error "--checkpoint-every requires --journal"
    | { journal_dir = None; checkpoint_interval = Some _; _ } ->
        Error "--checkpoint-interval requires --journal"
    | _ -> Ok ()
  in
  let* mgr =
    Session.Manager.create ~engines:config.engines ~domains
      ?journal_dir:config.journal_dir ~fsync:config.fsync
      ?boot_script:config.boot_script ~max_pending:config.max_pending
      ~extra_stats:counters_text ~standby
      ?checkpoint_every:config.checkpoint_every
      ?checkpoint_interval:config.checkpoint_interval ()
  in
  let* addr = resolve_addr config.host in
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  | fd -> (
      match
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (addr, config.port));
        Unix.listen fd config.backlog;
        Unix.set_nonblock fd;
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> config.port
      with
      | exception Unix.Unix_error (e, op, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Session.Manager.shutdown mgr;
          Error (Printf.sprintf "%s: %s" op (Unix.error_message e))
      | bound_port ->
          let follower =
            Option.map
              (fun (f_host, f_port) ->
                {
                  f_host;
                  f_port;
                  f_backoff = Chimera_util.Backoff.create ~base:0.05 ~cap:2.0 ();
                  f_lag =
                    Array.init config.engines (fun i ->
                        Obs.Metrics.gauge (Printf.sprintf "repl.lag.shard%d" i));
                  f_link = F_idle { retry_at = 0. };
                })
              config.follow
          in
          Ok
            {
              config;
              listen_fd = Some fd;
              bound_port;
              mgr;
              conns = Hashtbl.create 64;
              drain_requested = false;
              draining = false;
              stopped = false;
              read_chunk = Bytes.create 8192;
              shard_seq = Session.Manager.boot_seqs mgr;
              g_ack_floors =
                Array.init config.engines (fun i ->
                    Obs.Metrics.gauge
                      (Printf.sprintf "repl.ack_floor.shard%d" i));
              follower;
              promote_requested = false;
              takeover_fd = None;
            })

let port t = t.bound_port
let manager t = t.mgr
let active_conns t = Hashtbl.length t.conns
let draining t = t.draining
let request_drain t = t.drain_requested <- true
let standby t = Session.Manager.standby t.mgr
let request_promote t = t.promote_requested <- true

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle;
  (* SIGUSR1 promotes a standby (no-op on a primary): the conventional
     failover trigger for an operator or supervisor script. *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> request_promote t));
  (* A client that vanishes mid-write must surface as EPIPE, not kill
     the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------- output *)

let enqueue_payload t conn payload =
  match
    Protocol.frame_into ~max_frame:t.config.max_frame conn.outbuf payload
  with
  | Ok () -> Obs.Metrics.incr c_frames_out
  | Error _ ->
      (* A reply larger than the negotiated frame cap (a huge inspection
         output): degrade to a framed ERR rather than lose framing. *)
      (match
         Protocol.frame_into ~max_frame:t.config.max_frame conn.outbuf
           (Protocol.reply_to_payload
              (Protocol.Err ("oversize", "reply exceeded the frame cap")))
       with
      | Ok () -> Obs.Metrics.incr c_frames_out
      | Error _ -> ())

(* ------------------------------------------------- subscription pushes *)

let pending_out conn =
  Buffer.length conn.outbuf + conn.queued_bytes - conn.out_off

(* Moves queued subscription pushes into the connection's output, each
   preceded by the [NOTIFY_GAP] its subscription is owed (the gap is
   seen in stream position: everything before it was delivered,
   [dropped] notifies are missing right here).  Stops at the high-water
   mark — a slow consumer keeps its backlog in the bounded [notifyq],
   where overflow sheds the oldest — unless [force], the drain epilogue:
   every still-queued notify is flushed or gapped, never silently lost. *)
let drain_notifies t conn ~force =
  let flush_gap sub (dropped, binary) =
    Obs.Metrics.incr c_sub_gaps;
    enqueue_payload t conn (Protocol.notify_gap_to_payload ~binary ~sub ~dropped)
  in
  if not conn.dead then begin
    let rec go () =
      if force || pending_out conn <= t.config.high_water then
        match Queue.pop conn.notifyq with
        | exception Queue.Empty -> ()
        | sub, payload ->
            conn.notifyq_len <- conn.notifyq_len - 1;
            (match Hashtbl.find_opt conn.gaps sub with
            | Some gap ->
                Hashtbl.remove conn.gaps sub;
                flush_gap sub gap
            | None -> ());
            Obs.Metrics.incr c_sub_notifies;
            enqueue_payload t conn payload;
            go ()
    in
    go ();
    (* An emptied queue may leave gaps with no notify to ride in front
       of (the shed notify was the subscription's last): emit them now
       rather than park the receipt indefinitely. *)
    if Queue.is_empty conn.notifyq && Hashtbl.length conn.gaps > 0 then begin
      Hashtbl.iter flush_gap conn.gaps;
      Hashtbl.reset conn.gaps
    end
  end

(* A committed activation for one of this connection's subscriptions:
   enqueue bounded, shedding the oldest queued push when full — the shed
   push's subscription accrues a gap, delivered as [NOTIFY_GAP] in front
   of its next notify. *)
let on_notify t ~sid ~sub ~binary ~at ~bindings =
  match Hashtbl.find_opt t.conns sid with
  | Some conn when (not conn.dead) && not conn.close_after_flush ->
      let payload =
        Protocol.notify_to_payload ~binary { Protocol.sub; at; bindings }
      in
      if conn.notifyq_len >= t.config.notify_queue then (
        match Queue.pop conn.notifyq with
        | exception Queue.Empty -> ()
        | shed_sub, shed_payload ->
            conn.notifyq_len <- conn.notifyq_len - 1;
            Obs.Metrics.incr c_sub_dropped;
            let shed_binary =
              String.length shed_payload > 0 && shed_payload.[0] < '\x20'
            in
            let prior =
              match Hashtbl.find_opt conn.gaps shed_sub with
              | Some (n, _) -> n
              | None -> 0
            in
            Hashtbl.replace conn.gaps shed_sub (prior + 1, shed_binary));
      Queue.add (sub, payload) conn.notifyq;
      conn.notifyq_len <- conn.notifyq_len + 1;
      drain_notifies t conn ~force:false
  | Some _ | None -> ()

(* Replies ride behind the notifies already owed to the connection: an
   UNSUB's OK (or a COMMIT reply released from the replication gate)
   must not overtake the notifies of commits that preceded it.  The
   flush is forced — a client awaiting a reply is actively reading, and
   the backlog is bounded by [notify_queue]. *)
let send_reply_payload t conn payload =
  drain_notifies t conn ~force:true;
  enqueue_payload t conn payload

let hold conn gate payload =
  Queue.add (gate, payload) conn.held;
  conn.held_bytes <- conn.held_bytes + String.length payload

(* Replies leave in arrival order: while the gate holds a commit reply,
   every later reply of the connection waits behind it. *)
let enqueue_reply t conn reply =
  let payload = Protocol.reply_to_payload reply in
  if Queue.is_empty conn.held then send_reply_payload t conn payload
  else hold conn None payload

(* -------------------------------------- replication gate (primary side) *)

let fold_peers t f init =
  Hashtbl.fold
    (fun _ c acc ->
      match c.repl with Some p when not c.dead -> f acc p | Some _ | None -> acc)
    t.conns init

let repl_peer_count t = fold_peers t (fun n _ -> n + 1) 0

(* The gate floor of a shard: the lowest commit sequence every attached
   follower has acknowledged; [None] without followers. *)
let min_acked t shard =
  fold_peers t
    (fun acc p ->
      Some
        (match acc with
        | None -> p.acked.(shard)
        | Some m -> min m p.acked.(shard)))
    None

(* Publishes a shard's ack floor to the session manager: segment GC on
   the shard's worker domain never retires a sealed segment a connected
   follower has not durably acked. *)
let update_gc_floor t shard =
  let floor =
    match min_acked t shard with None -> max_int | Some m -> m
  in
  Obs.Metrics.set_gauge t.g_ack_floors.(shard)
    (if floor = max_int then -1 else floor);
  Session.Manager.set_gc_floor t.mgr ~shard floor

let update_gc_floors t =
  for shard = 0 to t.config.engines - 1 do
    update_gc_floor t shard
  done

(* Sends a connection's held replies from the head up to the first
   commit reply some follower has not acked yet — all of them when
   [force] (drain forgoes the gate: replication continues best-effort,
   but a parked reply must not hold the shutdown hostage), or when the
   last follower detached (no followers, no gate). *)
let release_held t ~force conn =
  let unacked (shard, seq) =
    match min_acked t shard with Some m -> seq > m | None -> false
  in
  let rec go () =
    match Queue.peek_opt conn.held with
    | Some (Some gate, _) when (not force) && unacked gate -> ()
    | Some (_, payload) ->
        ignore (Queue.pop conn.held);
        conn.held_bytes <- conn.held_bytes - String.length payload;
        send_reply_payload t conn payload;
        go ()
    | None -> ()
  in
  go ()

let release_all_held t ~force =
  Hashtbl.iter
    (fun _ conn ->
      if not (Queue.is_empty conn.held) then release_held t ~force conn)
    t.conns

(* A commit completed: record the shard's new sequence, then either send
   the reply or — under semi-synchronous replication with followers
   attached — hold it until they acknowledge. *)
let park_or_send t ~sid ~shard ~seq reply =
  t.shard_seq.(shard) <- max t.shard_seq.(shard) seq;
  match Hashtbl.find_opt t.conns sid with
  | Some conn when not conn.dead ->
      if t.config.repl_sync && (not t.draining) && repl_peer_count t > 0
      then begin
        Obs.Metrics.incr c_repl_parked;
        hold conn (Some (shard, seq)) (Protocol.reply_to_payload reply)
      end
      else enqueue_reply t conn reply
  | Some _ | None -> ()

(* ------------------------------------------------------------ dispatch *)

let dispatch_events t events =
  List.iter
    (fun event ->
      match event with
      | Session.Manager.Reply (sid, reply) -> (
          match Hashtbl.find_opt t.conns sid with
          | Some conn when not conn.dead -> enqueue_reply t conn reply
          | Some _ | None -> ())
      | Session.Manager.Committed { sid; shard; seq; reply } ->
          park_or_send t ~sid ~shard ~seq reply
      | Session.Manager.Close sid -> (
          match Hashtbl.find_opt t.conns sid with
          | Some conn -> conn.close_after_flush <- true
          | None -> ())
      | Session.Manager.Notify { sid; sub; binary; at; bindings } ->
          on_notify t ~sid ~sub ~binary ~at ~bindings)
    events

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Hashtbl.remove t.conns conn.sid;
    Obs.Metrics.set_gauge g_active (Hashtbl.length t.conns);
    (match conn.repl with
    | None -> ()
    | Some peer ->
        conn.repl <- None;
        Array.iter Journal.Tail.close peer.tails;
        Obs.Metrics.set_gauge g_repl_peers (repl_peer_count t);
        (* The gate floor rose (or the gate vanished): re-evaluate every
           held commit reply, and unpin sealed segments the departed
           follower was holding back from GC. *)
        update_gc_floors t;
        release_all_held t ~force:false);
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* Closing may free an engine shard: route the woken waiters'
       replies to their own connections. *)
    dispatch_events t (Session.Manager.disconnect t.mgr conn.sid)
  end

(* Seals the turn's staged replies into one queued chunk.  The copy
   happens exactly once per chunk, here — the write loop below then works
   on the string directly, unlike the previous scheme that re-copied the
   whole buffer on every partial-write retry. *)
let seal_out conn =
  if Buffer.length conn.outbuf > 0 then begin
    let chunk = Buffer.contents conn.outbuf in
    Buffer.clear conn.outbuf;
    Queue.add chunk conn.outq;
    conn.queued_bytes <- conn.queued_bytes + String.length chunk
  end

(* Non-blocking flush: writes queued chunks head-first until the socket
   would block; once everything is out a pending close executes. *)
let try_flush t conn =
  if (not conn.dead) && pending_out conn > 0 then begin
    seal_out conn;
    let rec write_chunks () =
      match Queue.peek_opt conn.outq with
      | None -> ()
      | Some chunk -> (
          match
            Unix.write_substring conn.fd chunk conn.out_off
              (String.length chunk - conn.out_off)
          with
          | 0 -> ()
          | n ->
              Obs.Metrics.add c_bytes_out n;
              conn.out_off <- conn.out_off + n;
              if conn.out_off >= String.length chunk then begin
                ignore (Queue.pop conn.outq);
                conn.queued_bytes <- conn.queued_bytes - String.length chunk;
                conn.out_off <- 0;
                write_chunks ()
              end
          | exception
              Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> close_conn t conn)
    in
    write_chunks ()
  end;
  if
    (not conn.dead) && conn.close_after_flush && pending_out conn = 0
    && Queue.is_empty conn.held
  then close_conn t conn

(* ------------------------------------- replication stream (primary side) *)

(* Tail chunks must fit a frame with the push verb line in front. *)
let tail_chunk t = max 1024 (min (32 * 1024) (t.config.max_frame - 256))

(* [REPL_HELLO <version> <engines>]: upgrade this connection into a
   replication stream — one journal tailer per shard, reading the live
   segment from its start (a fresh follower rebuilds from the checkpoint
   and the live segment; checkpoint + seal keeps segments bounded). *)
let handle_repl_hello t conn arg =
  let fail code msg = enqueue_reply t conn (Protocol.Err (code, msg)) in
  match String.split_on_char ' ' arg with
  | [ version; engines_text ] -> (
      match int_of_string_opt engines_text with
      | _ when not (String.equal version Protocol.version) ->
          fail "proto"
            (Printf.sprintf "unsupported version %S; speak %s" version
               Protocol.version)
      | None -> fail "proto" "REPL_HELLO takes <version> <engines>"
      | Some n when n <> t.config.engines ->
          fail "state"
            (Printf.sprintf "shard count mismatch: follower has %d, primary %d"
               n t.config.engines)
      | Some _ when Session.Manager.standby t.mgr ->
          fail "state" "a standby cannot be a replication source"
      | Some _ when conn.repl <> None ->
          fail "state" "already a replication stream"
      | Some _ -> (
          let paths = Session.Manager.journal_paths t.mgr in
          if List.length paths <> t.config.engines then
            fail "state" "replication requires --journal on the primary"
          else begin
            let tails =
              Array.of_list
                (List.map
                   (fun path ->
                     Journal.Tail.create ~chunk:(tail_chunk t) ~path ())
                   paths)
            in
            conn.repl <-
              Some
                {
                  tails;
                  tail_paths = Array.of_list paths;
                  acked = Array.make t.config.engines 0;
                };
            Obs.Metrics.set_gauge g_repl_peers (repl_peer_count t);
            (* The fresh peer has acked nothing: GC must pin every sealed
               segment until it catches up. *)
            update_gc_floors t;
            Log.info (fun m -> m "replication follower attached (session %d)" conn.sid);
            enqueue_reply t conn
              (Protocol.Ok_
                 (Printf.sprintf "%s shards=%d" Protocol.version
                    t.config.engines))
          end))
  | _ -> fail "proto" "REPL_HELLO takes <version> <engines>"

let handle_repl_ack t conn ~shard ~seq =
  match conn.repl with
  | None ->
      enqueue_reply t conn
        (Protocol.Err ("proto", "REPL_ACK outside a replication stream"))
  | Some peer ->
      if shard >= 0 && shard < Array.length peer.acked then begin
        peer.acked.(shard) <- max peer.acked.(shard) seq;
        Obs.Metrics.incr c_repl_acks;
        update_gc_floor t shard;
        release_all_held t ~force:false
      end

(* Ships the checkpoint beside [path] as the base of a fresh segment
   generation: the checkpoint's records framed as journal wire bytes,
   closed by a commit marker at its covered sequence, chunked at record
   boundaries to fit the frame cap.  The checkpoint on disk may be newer
   than the seal being shipped (another cycle ran meanwhile); the
   follower's idempotency guard skips any group it already applied. *)
let ship_checkpoint_base t conn ~shard path =
  match Checkpoint.read_opt ~path:(Checkpoint.path_for path) with
  | Ok None -> ()
  | Error msg ->
      Log.warn (fun m ->
          m "replication: unreadable checkpoint beside %s: %s" path msg)
  | Ok (Some ckpt) ->
      let wire = Checkpoint.to_wire ckpt in
      let limit = tail_chunk t in
      let buf = Buffer.create (min limit (String.length wire)) in
      let flush () =
        if Buffer.length buf > 0 then begin
          let data = Buffer.contents buf in
          Buffer.clear buf;
          Obs.Metrics.add c_repl_bytes (String.length data);
          enqueue_payload t conn
            (Protocol.push_to_payload
               (Protocol.Repl_records
                  { shard; head_seq = t.shard_seq.(shard); data }))
        end
      in
      List.iter
        (fun line ->
          if line <> "" then begin
            if Buffer.length buf + String.length line + 1 > limit then flush ();
            Buffer.add_string buf line;
            Buffer.add_char buf '\n'
          end)
        (String.split_on_char '\n' wire);
      flush ()

(* Ships whatever each shard's journal grew by to every attached
   follower, under the same high-water backpressure as replies: a slow
   follower stops being fed rather than ballooning its buffer (it
   catches up from the file — the tailer holds its position). *)
let ship_repl t =
  Hashtbl.iter
    (fun _ conn ->
      match conn.repl with
      | None -> ()
      | Some _ when conn.dead || conn.close_after_flush -> ()
      | Some peer ->
          Array.iteri
            (fun shard tail ->
              if pending_out conn <= t.config.high_water then
                List.iter
                  (fun ev ->
                    match ev with
                    | Journal.Tail.Segment { generation } ->
                        enqueue_payload t conn
                          (Protocol.push_to_payload
                             (Protocol.Repl_segment { shard; generation }));
                        (* A fresh generation rebuilds the follower from
                           nothing; under checkpoint-era sealing the live
                           file alone is not full history — the
                           checkpoint beside it stands for everything
                           behind the seal. *)
                        ship_checkpoint_base t conn ~shard
                          peer.tail_paths.(shard)
                    | Journal.Tail.Records data ->
                        Obs.Metrics.add c_repl_bytes (String.length data);
                        enqueue_payload t conn
                          (Protocol.push_to_payload
                             (Protocol.Repl_records
                                { shard; head_seq = t.shard_seq.(shard); data })))
                  (Journal.Tail.poll tail))
            peer.tails)
    t.conns

(* ----------------------------------------------------------- promotion *)

let close_follower_link f =
  (match f.f_link with
  | F_idle _ -> ()
  | F_connecting { fd } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | F_streaming st -> (
      try Unix.close st.sfd with Unix.Unix_error _ -> ()));
  f.f_link <- F_idle { retry_at = infinity }

(* Best-effort takeover of the dead primary's address, so clients that
   reconnect to it land on the promoted server unchanged.  Fails quietly
   when the address is not local (or still held): clients then need the
   follower's own address. *)
let takeover_bind t host port =
  match resolve_addr host with
  | Error msg -> Log.warn (fun m -> m "takeover: %s" msg)
  | Ok addr -> (
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) ->
          Log.warn (fun m -> m "takeover: socket: %s" (Unix.error_message e))
      | fd -> (
          match
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd (Unix.ADDR_INET (addr, port));
            Unix.listen fd t.config.backlog;
            Unix.set_nonblock fd
          with
          | () ->
              t.takeover_fd <- Some fd;
              Log.info (fun m -> m "takeover: listening on %s:%d" host port)
          | exception Unix.Unix_error (e, op, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Log.warn (fun m ->
                  m "takeover of %s:%d failed: %s: %s" host port op
                    (Unix.error_message e))))

(* The standby becomes a primary: the manager attaches the shipped
   segment copies as live journals (warm — no replay), the outbound link
   closes, and the old primary's address is taken over best-effort. *)
let do_promote t =
  match Session.Manager.promote t.mgr with
  | Error _ as e -> e
  | Ok () ->
      Obs.Metrics.incr c_repl_promotions;
      (match t.follower with
      | None -> ()
      | Some f ->
          close_follower_link f;
          t.follower <- None;
          Array.iter (fun g -> Obs.Metrics.set_gauge g 0) f.f_lag;
          takeover_bind t f.f_host f.f_port);
      Log.app (fun m -> m "promoted: standby is now a primary");
      Ok ()

let handle_repl_command t conn payload =
  match Protocol.command_of_payload payload with
  | Error msg -> enqueue_reply t conn (Protocol.Err ("proto", msg))
  | Ok (Protocol.Repl_hello arg) -> handle_repl_hello t conn arg
  | Ok (Protocol.Repl_ack { shard; seq }) ->
      handle_repl_ack t conn ~shard ~seq
  | Ok Protocol.Promote ->
      if Session.Manager.standby t.mgr then (
        match do_promote t with
        | Ok () -> enqueue_reply t conn (Protocol.Ok_ "promoted")
        | Error msg -> enqueue_reply t conn (Protocol.Err ("state", msg)))
      else enqueue_reply t conn (Protocol.Err ("state", "not a standby"))
  | Ok _ ->
      (* [is_repl_payload] admits only the three verbs above. *)
      enqueue_reply t conn (Protocol.Err ("proto", "not a replication verb"))

(* -------------------------------------------------------------- input *)

let ensure_capacity conn extra =
  let need = conn.in_len + extra in
  if Bytes.length conn.inbuf < need then begin
    let grown = Bytes.create (max need (2 * Bytes.length conn.inbuf)) in
    Bytes.blit conn.inbuf 0 grown 0 conn.in_len;
    conn.inbuf <- grown
  end

let consume conn n =
  if n > 0 then begin
    Bytes.blit conn.inbuf n conn.inbuf 0 (conn.in_len - n);
    conn.in_len <- conn.in_len - n
  end

(* Decodes and executes the complete frames currently buffered, stopping
   while the session is blocked (queued behind a busy shard, or holding
   a reply back for pipeline order): decoding past that point would walk
   the per-session pending bound into an overflow close, when the right
   move — pipelining's admission control — is to leave the bytes in
   [inbuf] and resume once events unblock the session (the post-pump
   pass in {!poll}). *)
let rec drain_frames t conn =
  if
    conn.dead || conn.close_after_flush
    || Session.Manager.blocked t.mgr conn.sid
  then ()
  else
    match
      Protocol.decode ~max_frame:t.config.max_frame conn.inbuf ~off:0
        ~len:conn.in_len
    with
    | Protocol.Need_more -> ()
    | Protocol.Frame (payload, used) ->
        consume conn used;
        Obs.Metrics.incr c_frames_in;
        let t0 = Obs.start_timer () in
        if Protocol.is_binary_payload payload then
          dispatch_events t (Session.Manager.on_binary t.mgr conn.sid payload)
          (* Replication and admin verbs are reactor state, not session
             commands: they never reach the session manager. *)
        else if Protocol.is_repl_payload payload then
          handle_repl_command t conn payload
        else
          dispatch_events t (Session.Manager.on_payload t.mgr conn.sid payload);
        Obs.observe_since h_frame t0;
        drain_frames t conn
    | Protocol.Reject (reason, skip) ->
        (* Framing survived (e.g. a zero-length frame): answer and go on. *)
        consume conn skip;
        enqueue_reply t conn (Protocol.Err ("proto", reason));
        drain_frames t conn
    | Protocol.Corrupt reason ->
        (* Framing lost: nothing later in the stream can be trusted. *)
        conn.in_len <- 0;
        enqueue_reply t conn (Protocol.Err ("oversize", reason));
        conn.close_after_flush <- true

let handle_readable t conn =
  match Unix.read conn.fd t.read_chunk 0 (Bytes.length t.read_chunk) with
  | 0 -> close_conn t conn
  | n ->
      Obs.Metrics.add c_bytes_in n;
      conn.last_activity <- Chimera_util.Monotime.now_s ();
      ensure_capacity conn n;
      Bytes.blit t.read_chunk 0 conn.inbuf conn.in_len n;
      conn.in_len <- conn.in_len + n;
      drain_frames t conn
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* ------------------------------------------------------------- accept *)

let reject_conn t fd reason =
  Obs.Metrics.incr c_rejects;
  let frame =
    Protocol.frame_exn ~max_frame:t.config.max_frame
      (Protocol.reply_to_payload (Protocol.Err ("busy", reason)))
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd frame 0 (String.length frame))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* select(2) watches only descriptors below FD_SETSIZE, and [Unix.select]
   raises EINVAL on any other — out of {!poll}, stopping the server.
   Probing the new descriptor alone, with a zero timeout, tells exactly
   whether the reactor can watch it. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

let rec accept_loop t listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> ()
  | fd, _addr ->
      if Hashtbl.length t.conns >= t.config.max_conns then
        reject_conn t fd "server at max connections"
      else if not (selectable fd) then
        reject_conn t fd "server out of selectable descriptors"
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let sid = Session.Manager.open_session t.mgr in
        Hashtbl.replace t.conns sid
          {
            fd;
            sid;
            inbuf = Bytes.create 4096;
            in_len = 0;
            outbuf = Buffer.create 512;
            outq = Queue.create ();
            queued_bytes = 0;
            out_off = 0;
            last_activity = Chimera_util.Monotime.now_s ();
            close_after_flush = false;
            dead = false;
            repl = None;
            notifyq = Queue.create ();
            notifyq_len = 0;
            gaps = Hashtbl.create 4;
            held = Queue.create ();
            held_bytes = 0;
          };
        Obs.Metrics.incr c_accepts;
        Obs.Metrics.set_gauge g_active (Hashtbl.length t.conns)
      end;
      accept_loop t listen_fd

(* ---------------------------------------- follower link (standby side) *)

let follower_fail f msg =
  Log.warn (fun m -> m "replication link lost: %s" msg);
  (match f.f_link with
  | F_connecting { fd } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | F_streaming st -> ( try Unix.close st.sfd with Unix.Unix_error _ -> ())
  | F_idle _ -> ());
  f.f_link <-
    F_idle
      {
        retry_at =
          Chimera_util.Monotime.now_s ()
          +. Chimera_util.Backoff.next f.f_backoff;
      }

(* The TCP connect completed: greet the primary.  Everything downstream
   of the greeting is a fresh replication session — the primary ships
   each segment from its start, and the [REPL_SEGMENT] events that open
   them reset our shards — so a reconnect needs no resume protocol. *)
let follower_established t f fd =
  let outbuf = Buffer.create 256 in
  ignore
    (Protocol.frame_into ~max_frame:t.config.max_frame outbuf
       (Protocol.command_to_payload
          (Protocol.Repl_hello
             (Protocol.version ^ " " ^ string_of_int t.config.engines))));
  f.f_link <-
    F_streaming
      {
        sfd = fd;
        s_inbuf = Bytes.create 8192;
        s_in_len = 0;
        s_outbuf = outbuf;
        s_out_off = 0;
        s_greeted = false;
      }

let follower_start_connect t f =
  let back () =
    f.f_link <-
      F_idle
        {
          retry_at =
            Chimera_util.Monotime.now_s ()
            +. Chimera_util.Backoff.next f.f_backoff;
        }
  in
  match resolve_addr f.f_host with
  | Error msg ->
      Log.warn (fun m -> m "follow: %s" msg);
      back ()
  | Ok addr -> (
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) ->
          Log.warn (fun m -> m "follow: socket: %s" (Unix.error_message e));
          back ()
      | fd when not (selectable fd) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Log.warn (fun m -> m "follow: no descriptor select can watch");
          back ()
      | fd -> (
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          match Unix.connect fd (Unix.ADDR_INET (addr, f.f_port)) with
          | () -> follower_established t f fd
          | exception
              Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
              f.f_link <- F_connecting { fd }
          | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              back ()))

let follower_on_payload t f st payload =
  if not st.s_greeted then
    match Protocol.reply_of_payload payload with
    | Ok (Protocol.Ok_ _) ->
        st.s_greeted <- true;
        Chimera_util.Backoff.reset f.f_backoff;
        Log.info (fun m -> m "following %s:%d" f.f_host f.f_port)
    | Ok (Protocol.Err (code, msg)) ->
        follower_fail f (Printf.sprintf "primary refused: %s %s" code msg)
    | Ok (Protocol.Triggered _) | Error _ ->
        follower_fail f "unexpected greeting reply"
  else if Protocol.is_push_payload payload then (
    match Protocol.push_of_payload payload with
    | Error msg -> follower_fail f msg
    | Ok (Protocol.Repl_segment { shard; generation = _ }) -> (
        match Session.Manager.repl_reset t.mgr ~shard with
        | Ok () -> ()
        | Error msg -> follower_fail f msg)
    | Ok (Protocol.Repl_records { shard; head_seq; data }) -> (
        (* Apply, then ack what is durably ours; an apply error means the
           local state can no longer be trusted, so drop the link — the
           reconnect resynchronizes from the segment start. *)
        match Session.Manager.repl_apply t.mgr ~shard ~head_seq data with
        | Ok applied ->
            if shard < Array.length f.f_lag then
              Obs.Metrics.set_gauge f.f_lag.(shard) (max 0 (head_seq - applied));
            ignore
              (Protocol.frame_into ~max_frame:t.config.max_frame st.s_outbuf
                 (Protocol.command_to_payload
                    (Protocol.Repl_ack { shard; seq = applied })))
        | Error msg -> follower_fail f msg))
  else
    (* An ordinary reply on the stream — e.g. [ERR shutdown] when the
       primary drains.  Drop and retry; a promotion decision is the
       operator's. *)
    follower_fail f ("unexpected frame from the primary: " ^ payload)

let follower_drain_frames t f st =
  let live () = match f.f_link with F_streaming cur -> cur == st | _ -> false in
  let rec go () =
    if live () then
      match
        Protocol.decode ~max_frame:t.config.max_frame st.s_inbuf ~off:0
          ~len:st.s_in_len
      with
      | Protocol.Need_more -> ()
      | Protocol.Frame (payload, used) ->
          Bytes.blit st.s_inbuf used st.s_inbuf 0 (st.s_in_len - used);
          st.s_in_len <- st.s_in_len - used;
          follower_on_payload t f st payload;
          go ()
      | Protocol.Reject (_, skip) ->
          Bytes.blit st.s_inbuf skip st.s_inbuf 0 (st.s_in_len - skip);
          st.s_in_len <- st.s_in_len - skip;
          go ()
      | Protocol.Corrupt reason -> follower_fail f reason
  in
  go ()

let follower_handle_readable t f st =
  match Unix.read st.sfd t.read_chunk 0 (Bytes.length t.read_chunk) with
  | 0 -> follower_fail f "primary closed the stream"
  | n ->
      let need = st.s_in_len + n in
      if Bytes.length st.s_inbuf < need then begin
        let grown = Bytes.create (max need (2 * Bytes.length st.s_inbuf)) in
        Bytes.blit st.s_inbuf 0 grown 0 st.s_in_len;
        st.s_inbuf <- grown
      end;
      Bytes.blit t.read_chunk 0 st.s_inbuf st.s_in_len n;
      st.s_in_len <- st.s_in_len + n;
      follower_drain_frames t f st
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) ->
      follower_fail f (Unix.error_message e)

let follower_try_flush f =
  match f.f_link with
  | F_streaming st when Buffer.length st.s_outbuf - st.s_out_off > 0 -> (
      let data = Buffer.to_bytes st.s_outbuf in
      match
        Unix.write st.sfd data st.s_out_off (Bytes.length data - st.s_out_off)
      with
      | 0 -> ()
      | n ->
          st.s_out_off <- st.s_out_off + n;
          if st.s_out_off >= Bytes.length data then begin
            Buffer.clear st.s_outbuf;
            st.s_out_off <- 0
          end
      | exception
          Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (e, _, _) ->
          follower_fail f (Unix.error_message e))
  | F_streaming _ | F_connecting _ | F_idle _ -> ()

(* Pre-select: initiate a (re)connect when the backoff delay elapsed. *)
let follower_turn t =
  match t.follower with
  | None -> ()
  | Some f -> (
      match f.f_link with
      | F_idle { retry_at }
        when Chimera_util.Monotime.now_s () >= retry_at ->
          follower_start_connect t f
      | F_idle _ | F_connecting _ | F_streaming _ -> ())

let follower_fds t =
  match t.follower with
  | None -> ([], [])
  | Some f -> (
      match f.f_link with
      | F_idle _ -> ([], [])
      | F_connecting { fd } -> ([], [ fd ])
      | F_streaming st ->
          ( [ st.sfd ],
            if Buffer.length st.s_outbuf - st.s_out_off > 0 then [ st.sfd ] else []
          ))

let follower_after_select t readable writable =
  match t.follower with
  | None -> ()
  | Some f -> (
      match f.f_link with
      | F_idle _ -> ()
      | F_connecting { fd } ->
          if List.memq fd writable then (
            match Unix.getsockopt_error fd with
            | None -> follower_established t f fd
            | Some e -> follower_fail f (Unix.error_message e)
            | exception Unix.Unix_error (e, _, _) ->
                follower_fail f (Unix.error_message e))
      | F_streaming st ->
          if List.memq st.sfd readable then follower_handle_readable t f st;
          (* The link may have failed while reading. *)
          (match f.f_link with
          | F_streaming cur when cur == st -> follower_try_flush f
          | F_streaming _ | F_connecting _ | F_idle _ -> ()))

(* -------------------------------------------------------------- drain *)

(* The per-turn drain sweep: a connection is told goodbye and closed
   once its session is idle — nothing queued, nothing in flight on a
   worker domain — so every reply already owed to it goes out first.
   Sessions parked behind a busy shard become idle as the closes cascade
   (closing the owner frees the shard, its waiters run their queues and
   turn idle), so the sweep converges over a few turns. *)
let drain_sweep t =
  Hashtbl.iter
    (fun _sid conn ->
      if
        (not conn.dead)
        && (not conn.close_after_flush)
        && Session.Manager.idle t.mgr conn.sid
      then begin
        (* The goodbye must not orphan queued pushes: flush or gap every
           pending notify before the shutdown reply seals the stream. *)
        drain_notifies t conn ~force:true;
        enqueue_reply t conn (Protocol.Err ("shutdown", "draining"));
        conn.close_after_flush <- true
      end)
    (Hashtbl.copy t.conns)

(* Entering drain: stop accepting, execute what is already buffered on
   every connection, then sweep; the write path closes each socket once
   its replies are out. *)
let begin_drain t =
  t.draining <- true;
  Obs.Metrics.incr c_drains;
  (match t.listen_fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.listen_fd <- None
  | None -> ());
  (match t.takeover_fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.takeover_fd <- None
  | None -> ());
  (* A draining standby stops chasing its primary; a draining primary
     releases any gated commit replies — the gate must not hold the
     shutdown hostage. *)
  (match t.follower with
  | Some f ->
      close_follower_link f;
      t.follower <- None
  | None -> ());
  release_all_held t ~force:true;
  Hashtbl.iter
    (fun _sid conn -> if not conn.dead then drain_frames t conn)
    (Hashtbl.copy t.conns);
  drain_sweep t

(* --------------------------------------------------------------- poll *)

type status = Running | Stopped

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let poll t ~timeout =
  if t.stopped then Stopped
  else begin
    if t.drain_requested && not t.draining then begin_drain t;
    if t.promote_requested then begin
      t.promote_requested <- false;
      if Session.Manager.standby t.mgr then
        match do_promote t with
        | Ok () -> ()
        | Error msg -> Log.err (fun m -> m "promotion failed: %s" msg)
    end;
    follower_turn t;
    (* Refreshed here, on the reactor (the registry's only writer), so
       [extra_stats] — possibly running on a worker domain — reads a
       plain gauge instead of racing the session table. *)
    Obs.Metrics.set_gauge g_sub_active
      (Session.Manager.subscription_count t.mgr);
    let conns = conn_list t in
    let reads =
      List.filter_map
        (fun c ->
          if
            c.dead || c.close_after_flush
            || pending_out c + c.held_bytes > t.config.high_water
            || Session.Manager.blocked t.mgr c.sid
          then None
          else Some c.fd)
        conns
    in
    let reads =
      match t.listen_fd with Some fd -> fd :: reads | None -> reads
    in
    let reads =
      match t.takeover_fd with Some fd -> fd :: reads | None -> reads
    in
    let reads =
      (* The worker domains' self-pipe: completions interrupt the select
         instead of waiting out its timeout. *)
      match Session.Manager.wakeup_fd t.mgr with
      | Some fd when not t.stopped -> fd :: reads
      | Some _ | None -> reads
    in
    let follower_reads, follower_writes = follower_fds t in
    let reads = follower_reads @ reads in
    let writes =
      List.filter_map
        (fun c -> if (not c.dead) && pending_out c > 0 then Some c.fd else None)
        conns
    in
    let writes = follower_writes @ writes in
    (* An idle standby waiting out its reconnect backoff must wake in
       time for the retry, not a full select timeout later. *)
    let timeout =
      match t.follower with
      | Some { f_link = F_idle { retry_at }; _ } when retry_at < infinity ->
          let now = Chimera_util.Monotime.now_s () in
          Float.max 0.005 (Float.min timeout (retry_at -. now))
      | Some _ | None -> timeout
    in
    (match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        (match t.listen_fd with
        | Some fd when List.memq fd readable -> accept_loop t fd
        | Some _ | None -> ());
        (match t.takeover_fd with
        | Some fd when List.memq fd readable -> accept_loop t fd
        | Some _ | None -> ());
        follower_after_select t readable writable;
        List.iter
          (fun c ->
            if (not c.dead) && List.memq c.fd readable then handle_readable t c)
          conns;
        (* Collect worker completions — replies for frames read this turn
           or earlier — so they flush below with everything else. *)
        dispatch_events t (Session.Manager.pump t.mgr);
        (* Completions may have unblocked sessions whose connections still
           hold undecoded frames (decoding stopped at [blocked]): resume
           them now, within the same turn, so a pipelining client is not
           one select round-trip behind its own window. *)
        List.iter
          (fun c -> if c.in_len > 0 then drain_frames t c)
          conns;
        (* Ship journal growth (this turn's commits included) to every
           attached replication follower. *)
        ship_repl t;
        (* Notifies parked behind the high-water mark ride out as the
           socket drains: re-attempt every backlog each turn. *)
        List.iter
          (fun c ->
            if (not c.dead) && c.notifyq_len > 0 then
              drain_notifies t c ~force:false)
          conns;
        if t.draining then drain_sweep t;
        (* Flush everything with output pending — the just-computed
           replies included, not only the fds select saw. *)
        List.iter
          (fun c ->
            if
              (not c.dead)
              && (List.memq c.fd writable || pending_out c > 0
                 || c.close_after_flush)
            then try_flush t c)
          conns);
    (* Idle reaping (sessions queued behind a busy shard included: a
       stuck transaction holder eventually times out and its abort frees
       the shard for the queue).  The monotonic clock, so an NTP step
       neither reaps every session at once nor pins one open forever. *)
    if t.config.idle_timeout > 0. then begin
      let now = Chimera_util.Monotime.now_s () in
      List.iter
        (fun c ->
          if
            (not c.dead) && (not c.close_after_flush)
            && c.repl = None
               (* a replication stream is legitimately silent between
                  commits: never reap it *)
            && now -. c.last_activity > t.config.idle_timeout
          then begin
            enqueue_reply t c (Protocol.Err ("shutdown", "idle timeout"));
            c.close_after_flush <- true;
            try_flush t c
          end)
        conns
    end;
    if t.draining && Hashtbl.length t.conns = 0 then begin
      Session.Manager.shutdown t.mgr;
      (match t.takeover_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.takeover_fd <- None
      | None -> ());
      t.stopped <- true;
      Stopped
    end
    else Running
  end

let rec run t =
  match poll t ~timeout:0.25 with Running -> run t | Stopped -> ()
