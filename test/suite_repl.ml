(* The replication suite: the REPL_* wire frames in isolation, the
   backoff schedule, journal tailing across seals (including crashes at
   every durability failpoint), the reactor surviving a hard RST with
   replies buffered, the load generator's bounded connect retry — and a
   full in-process failover drill: primary and warm standby polled
   co-operatively in one thread, semi-synchronous commit gating, loss of
   the primary, promotion, and a journal differential between the two
   data directories. *)

open Core

let mf = Protocol.default_max_frame

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let boot_script =
  "define class item (n: integer);\n\
   define class audit (tag: string);\n\
   define immediate trigger onItem for item\n\
  \  events { create(item) }\n\
  \  condition item(I), occurred({ create(item) }, I), I.n > 0\n\
  \  actions create audit(tag = \"item\")\n\
   end;\n"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chimera-repl-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* ----------------------------------------------------- protocol frames *)

let test_repl_protocol_roundtrip () =
  let roundtrip_command c =
    match Protocol.command_of_payload (Protocol.command_to_payload c) with
    | Ok c' ->
        Alcotest.(check bool)
          (Printf.sprintf "command %s" (Protocol.command_to_payload c))
          true (c = c')
    | Error msg -> Alcotest.failf "command rejected: %s" msg
  in
  List.iter roundtrip_command
    [
      Protocol.Repl_hello (Protocol.version ^ " 4");
      Protocol.Repl_ack { shard = 0; seq = 0 };
      Protocol.Repl_ack { shard = 3; seq = 123456 };
      Protocol.Promote;
    ];
  let roundtrip_push p =
    match Protocol.push_of_payload (Protocol.push_to_payload p) with
    | Ok p' ->
        Alcotest.(check bool)
          (Printf.sprintf "push %s"
             (String.escaped (Protocol.push_to_payload p)))
          true (p = p')
    | Error msg -> Alcotest.failf "push rejected: %s" msg
  in
  List.iter roundtrip_push
    [
      Protocol.Repl_segment { shard = 0; generation = 1 };
      Protocol.Repl_segment { shard = 7; generation = 42 };
      Protocol.Repl_records { shard = 0; head_seq = 3; data = "x\ty\tz\n" };
      (* Record bytes are arbitrary: embedded newlines and tabs must
         survive the frame untouched. *)
      Protocol.Repl_records
        {
          shard = 2;
          head_seq = 9;
          data = "18\t123\tcommit\t4\nline two\twith\ttabs\n";
        };
    ];
  (* The reactor classifies repl verbs before session dispatch. *)
  List.iter
    (fun (payload, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "is_repl_payload %S" payload)
        expect
        (Protocol.is_repl_payload payload))
    [
      ("REPL_HELLO chimera/1 2", true);
      ("REPL_ACK 0 17", true);
      ("PROMOTE", true);
      ("LINE create item(n = 1)", false);
      ("REPLY not-a-verb", false);
    ];
  List.iter
    (fun (payload, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "is_push_payload %S" payload)
        expect
        (Protocol.is_push_payload payload))
    [
      ("REPL_SEGMENT 0 1", true);
      ("REPL_RECORDS 0 3\nraw", true);
      ("REPL_ACK 0 17", false);
      ("OK fine", false);
    ];
  (* Malformed repl frames are rejected, never crash. *)
  List.iter
    (fun payload ->
      match Protocol.command_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" payload)
    [ "REPL_ACK 0"; "REPL_ACK x y"; "REPL_ACK 0 -1"; "PROMOTE now" ];
  List.iter
    (fun payload ->
      match Protocol.push_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted push %S" payload)
    [
      "REPL_SEGMENT 0 0" (* generations start at 1 *);
      "REPL_SEGMENT 0";
      "REPL_RECORDS 0 3" (* no record bytes after the head line *);
      "REPL_RECORDS x 3\ndata";
    ]

(* ------------------------------------------------------------ backoff *)

let test_backoff_schedule () =
  let base = 0.05 and cap = 2.0 and jitter = 0.25 in
  (* Deterministic under the seed: two instances, one schedule. *)
  let a = Backoff.create ~base ~cap ~jitter ~seed:7 () in
  let b = Backoff.create ~base ~cap ~jitter ~seed:7 () in
  for i = 0 to 19 do
    let da = Backoff.next a and db = Backoff.next b in
    Alcotest.(check (float 0.)) (Printf.sprintf "attempt %d" i) da db
  done;
  (* Every delay sits in the jitter band of the doubling, capped raw
     schedule, and is strictly positive. *)
  let t = Backoff.create ~base ~cap ~jitter ~seed:99 () in
  for i = 0 to 19 do
    let raw = Float.min cap (base *. (2. ** float_of_int i)) in
    let d = Backoff.next t in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in band (%g)" i d)
      true
      (d > 0. && d >= raw *. (1. -. jitter) && d < raw *. (1. +. jitter))
  done;
  Alcotest.(check int) "attempts counted" 20 (Backoff.attempts t);
  (* Reset restarts the raw schedule (the jitter stream keeps going). *)
  Backoff.reset t;
  Alcotest.(check int) "reset zeroes attempts" 0 (Backoff.attempts t);
  let d = Backoff.next t in
  Alcotest.(check bool) "first delay after reset is base-sized" true
    (d >= base *. (1. -. jitter) && d < base *. (1. +. jitter));
  (* Saturation: far past the doubling range the cap bounds every
     delay (2^big overflows to infinity; min must saturate it). *)
  let s = Backoff.create ~base ~cap ~jitter ~seed:1 () in
  for _ = 1 to 80 do ignore (Backoff.next s) done;
  let d = Backoff.next s in
  Alcotest.(check bool) "capped" true (d < cap *. (1. +. jitter));
  (* Invalid parameters are rejected. *)
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad backoff accepted")
    [
      (fun () -> Backoff.create ~base:0. ());
      (fun () -> Backoff.create ~base:1.0 ~cap:0.5 ());
      (fun () -> Backoff.create ~jitter:1.0 ());
      (fun () -> Backoff.create ~jitter:(-0.1) ());
    ]

(* ------------------------------------------------------ journal tailing *)

let records_of events =
  List.filter_map
    (function Journal.Tail.Records d -> Some d | _ -> None)
    events

let segments_of events =
  List.filter_map
    (function
      | Journal.Tail.Segment { generation } -> Some generation | _ -> None)
    events

let tags_of_data data =
  String.split_on_char '\n' data
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Journal.entry_of_line l with
         | Ok e -> e.Journal.tag
         | Error msg -> Alcotest.failf "bad record %S: %s" l msg)

let test_tail_commit_prefix () =
  let dir = tmp_dir "tail-prefix" in
  let path = Filename.concat dir "shard-0.journal" in
  let j = Journal.create ~sync:Journal.Never ~path () in
  let tail = Journal.Tail.create ~path () in
  (* First poll opens the segment. *)
  Alcotest.(check (list int)) "segment 1" [ 1 ]
    (segments_of (Journal.Tail.poll tail));
  (* Uncommitted records are held back... *)
  Journal.append j ~tag:"a" "1";
  Journal.append j ~tag:"b" "2";
  Journal.flush_block j;
  Alcotest.(check int) "held back before the marker" 0
    (List.length (records_of (Journal.Tail.poll tail)));
  (* ...and ship as one prefix once the commit marker lands. *)
  Journal.commit j;
  let tags =
    List.concat_map tags_of_data (records_of (Journal.Tail.poll tail))
  in
  Alcotest.(check (list string)) "committed prefix" [ "a"; "b"; "commit" ] tags;
  (* An abort ships too: the follower's replay machinery discards it. *)
  Journal.append j ~tag:"c" "3";
  Journal.flush_block j;
  Alcotest.(check int) "held back again" 0
    (List.length (records_of (Journal.Tail.poll tail)));
  Journal.abort j;
  let tags =
    List.concat_map tags_of_data (records_of (Journal.Tail.poll tail))
  in
  Alcotest.(check (list string)) "aborted prefix" [ "c"; "abort" ] tags;
  Journal.close j;
  Journal.Tail.close tail;
  rm_rf dir

(* Pump tail events into a sink the way the standby does: [Segment]
   resets, then takes [base ()] — what the primary ships right after a
   new generation starts — and [Records] append raw bytes.  Runs until
   two quiet polls. *)
let pump ?(base = fun () -> "") tail sink =
  let rec go quiet =
    if quiet < 2 then begin
      let evs = Journal.Tail.poll tail in
      List.iter
        (function
          | Journal.Tail.Segment _ ->
              Journal.Sink.reset sink;
              let b = base () in
              if b <> "" then Journal.Sink.write sink b
          | Journal.Tail.Records data -> Journal.Sink.write sink data)
        evs;
      go (if evs = [] then quiet + 1 else 0)
    end
  in
  go 0

(* The base a primary ships with a new generation: the checkpoint beside
   the journal, as journal wire bytes (none before the first one). *)
let checkpoint_base src () =
  match Checkpoint.read_opt ~path:(Checkpoint.path_for src) with
  | Ok (Some ckpt) -> Checkpoint.to_wire ckpt
  | Ok None | Error _ -> ""

let check_replays_equal what source copy =
  match (source, copy) with
  | Ok a, Ok b ->
      Alcotest.(check int)
        (what ^ ": last_commit_seq")
        a.Journal.last_commit_seq b.Journal.last_commit_seq;
      Alcotest.(check bool)
        (what ^ ": committed transactions identical")
        true
        (a.Journal.committed = b.Journal.committed);
      Alcotest.(check int)
        (what ^ ": nothing uncommitted in the copy")
        0 b.Journal.uncommitted_entries
  | Error msg, _ -> Alcotest.failf "%s: source unreadable: %s" what msg
  | _, Error msg -> Alcotest.failf "%s: copy unreadable: %s" what msg

let check_replay_equal what ~src ~copy =
  check_replays_equal what (Journal.read ~path:src) (Journal.read ~path:copy)

(* What a tail's copy must replay to.  On the first generation that is
   the source chain — a crash between a seal's rename and its fresh
   header leaves only the sealed segment, which the tail still holds.
   Past a seal it is the checkpoint the generation started from, then
   the live segment. *)
let check_tail_converged what ~tail ~src ~copy =
  let source =
    if Journal.Tail.generation tail <= 1 then
      Result.map (fun c -> c.Journal.chain_replay) (Journal.read_chain ~path:src)
    else
      match
        (Checkpoint.read ~path:(Checkpoint.path_for src), Journal.read ~path:src)
      with
      | Ok ckpt, Ok live ->
          Ok
            {
              live with
              Journal.committed = ckpt.Checkpoint.entries :: live.Journal.committed;
              committed_seqs = ckpt.Checkpoint.commit_seq :: live.Journal.committed_seqs;
              last_commit_seq = max ckpt.Checkpoint.commit_seq live.Journal.last_commit_seq;
            }
      | Error msg, _ | _, Error msg -> Error msg
  in
  check_replays_equal what source (Journal.read ~path:copy)

(* A checkpoint covering everything [j] committed, as the engine writes
   it right before sealing. *)
let write_checkpoint j ~src payloads =
  Checkpoint.write ~path:(Checkpoint.path_for src)
    {
      Checkpoint.commit_seq = Journal.commit_seq j;
      entries = List.map (fun payload -> { Journal.tag = "ckpt"; payload }) payloads;
    }

let test_tail_across_rotation () =
  let dir = tmp_dir "tail-rotate" in
  let src = Filename.concat dir "shard-0.journal" in
  let copy = Filename.concat dir "copy.journal" in
  let j = Journal.create ~sync:Journal.Never ~path:src () in
  (* A small chunk forces [Records] splitting at record boundaries. *)
  let tail = Journal.Tail.create ~chunk:1024 ~path:src () in
  let sink = Journal.Sink.create ~sync:Journal.Never ~path:copy () in
  let pump = pump ~base:(checkpoint_base src) in
  for i = 1 to 5 do
    Journal.append j ~tag:"op" (Printf.sprintf "pre-%d" i);
    Journal.commit j
  done;
  pump tail sink;
  check_tail_converged "before rotation" ~tail ~src ~copy;
  (* Checkpoint, then seal: the live segment moves aside and a fresh one
     starts at the path.  The tail must reset the sink, which takes the
     checkpoint as its base and then the new segment from its start —
     nothing dropped, nothing duplicated. *)
  write_checkpoint j ~src [ "state-at-5"; "more" ];
  Journal.seal j;
  for i = 1 to 3 do
    Journal.append j ~tag:"op" (Printf.sprintf "post-%d" i);
    Journal.commit j
  done;
  pump tail sink;
  Alcotest.(check int) "tail saw the second segment" 2
    (Journal.Tail.generation tail);
  check_tail_converged "after rotation" ~tail ~src ~copy;
  (match Journal.read ~path:copy with
  | Ok r ->
      Alcotest.(check int) "checkpoint + 3 transactions" 4
        (List.length r.Journal.committed)
  | Error msg -> Alcotest.fail msg);
  Journal.close j;
  Journal.Tail.close tail;
  Journal.Sink.close sink;
  rm_rf dir

(* Crash the writer at every failpoint inside a seal — the rename, the
   directory sync, the torn header of the fresh segment, its fsync — and
   check the tail + sink still converge to exactly what the surviving
   source replays to.  The dirsync site is the interesting one: the
   rename is visible but no live file exists yet, and the tail stays on
   the sealed segment it holds. *)
let test_tail_rotation_failpoints () =
  (* Setup runs disarmed; only the seal itself is inside the blast
     radius, so the crash budget indexes its sites exactly. *)
  let scenario ~after =
    let dir = tmp_dir (Printf.sprintf "tail-crash-%d" after) in
    let src = Filename.concat dir "shard-0.journal" in
    let copy = Filename.concat dir "copy.journal" in
    let j = Journal.create ~sync:Journal.Per_commit ~path:src () in
    let tail = Journal.Tail.create ~path:src () in
    let sink = Journal.Sink.create ~sync:Journal.Never ~path:copy () in
    let pump = pump ~base:(checkpoint_base src) in
    for i = 1 to 3 do
      Journal.append j ~tag:"op" (Printf.sprintf "tx-%d" i);
      Journal.commit j
    done;
    pump tail sink;
    write_checkpoint j ~src [ "base" ];
    Failpoint.arm ~after ();
    let crashed =
      try
        Journal.seal j;
        false
      with Failpoint.Crash _ -> true
    in
    let hits = Failpoint.total_hits () in
    Failpoint.clear ();
    (* The "process" died (or survived); the tail keeps polling and the
       sink must land on the replay of whatever the path now holds. *)
    pump tail sink;
    check_tail_converged (Printf.sprintf "crash point %d" after) ~tail ~src
      ~copy;
    (try Journal.close j with _ -> ());
    Journal.Tail.close tail;
    Journal.Sink.close sink;
    rm_rf dir;
    (crashed, hits)
  in
  (* Fault-free pass first, counting the sites a seal crosses. *)
  let _, total = scenario ~after:max_int in
  Alcotest.(check bool) "rotation crosses failpoints" true (total > 0);
  for k = 0 to total - 1 do
    let crashed, _ = scenario ~after:k in
    Alcotest.(check bool)
      (Printf.sprintf "crash at site %d/%d" k total)
      true crashed
  done

(* ------------------------------------------------- socket test harness *)

(* Like the suite_server client, but every wait interleaves polls of a
   LIST of servers — a primary and its standby run co-operatively in
   this one thread. *)

type client = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let poll_all servers =
  List.iter (fun srv -> ignore (Server.poll srv ~timeout:0.002)) servers

let connect_port port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 4096; len = 0 }

let connect srv = connect_port (Server.port srv)
let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let client_read c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
      let need = c.len + n in
      if Bytes.length c.buf < need then begin
        let grown = Bytes.create (max need (2 * Bytes.length c.buf)) in
        Bytes.blit c.buf 0 grown 0 c.len;
        c.buf <- grown
      end;
      Bytes.blit chunk 0 c.buf c.len n;
      c.len <- need;
      `Read
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    ->
      `Nothing
  | exception Unix.Unix_error _ -> `Eof

let send_raw servers c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error
          ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
          poll_all servers;
          go off
  in
  go 0

let send servers c cmd =
  send_raw servers c
    (Protocol.frame_exn ~max_frame:mf (Protocol.command_to_payload cmd))

let recv ?(polls = 400) servers c =
  let take () =
    match Protocol.decode ~max_frame:mf c.buf ~off:0 ~len:c.len with
    | Protocol.Frame (payload, used) ->
        Bytes.blit c.buf used c.buf 0 (c.len - used);
        c.len <- c.len - used;
        (match Protocol.reply_of_payload payload with
        | Ok r -> Some r
        | Error msg -> Alcotest.failf "unparsable reply %S: %s" payload msg)
    | _ -> None
  in
  let rec go polls =
    match take () with
    | Some r -> `Reply r
    | None ->
        if polls <= 0 then `Timeout
        else begin
          poll_all servers;
          match client_read c with
          | `Eof -> ( match take () with Some r -> `Reply r | None -> `Eof)
          | `Read | `Nothing -> go (polls - 1)
        end
  in
  go polls

let expect_ok servers c what =
  match recv servers c with
  | `Reply (Protocol.Ok_ s) -> s
  | `Reply r ->
      Alcotest.failf "%s: expected OK, got %s" what (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.failf "%s: connection closed" what
  | `Timeout -> Alcotest.failf "%s: no reply" what

let expect_triggered servers c what =
  match recv servers c with
  | `Reply (Protocol.Triggered rules) -> rules
  | `Reply r ->
      Alcotest.failf "%s: expected TRIGGERED, got %s" what
        (Protocol.reply_to_payload r)
  | `Eof | `Timeout -> Alcotest.failf "%s: no TRIGGERED reply" what

let expect_err servers c code what =
  match recv servers c with
  | `Reply (Protocol.Err (got, msg)) ->
      Alcotest.(check string) (what ^ ": code") code got;
      msg
  | `Reply r ->
      Alcotest.failf "%s: expected ERR %s, got %s" what code
        (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.failf "%s: connection closed" what
  | `Timeout -> Alcotest.failf "%s: no reply" what

let hello ?(key = "") servers c =
  send servers c (Protocol.Hello (Protocol.version ^ key));
  ignore (expect_ok servers c "hello")

let stop_server srv =
  Server.request_drain srv;
  let rec go n =
    if n = 0 then Alcotest.fail "server did not stop on drain"
    else
      match Server.poll srv ~timeout:0.005 with
      | Server.Stopped -> ()
      | Server.Running -> go (n - 1)
  in
  go 1000

(* --------------------------------------- hard close with buffered data *)

(* A client that RSTs its socket (SO_LINGER 0) while replies are still
   owed must cost the server exactly that one connection: the write
   surfaces EPIPE/ECONNRESET, never SIGPIPE, and other sessions keep
   being served. *)
let test_hard_close_keeps_serving () =
  let config =
    { Server.default_config with Server.boot_script = Some boot_script }
  in
  match Server.create { config with Server.port = 0 } with
  | Error msg -> Alcotest.fail msg
  | Ok srv ->
      Fun.protect ~finally:(fun () -> stop_server srv) @@ fun () ->
      let servers = [ srv ] in
      let c1 = connect srv in
      hello servers c1;
      (* Pipeline a burst of lines and never read the replies: the
         server buffers them against this connection. *)
      let buf = Buffer.create 4096 in
      for _ = 1 to 64 do
        Buffer.add_string buf
          (Protocol.frame_exn ~max_frame:mf
             (Protocol.command_to_payload
                (Protocol.Line "create item(n = 1)")))
      done;
      send_raw servers c1 (Buffer.contents buf);
      poll_all servers;
      (* RST: linger zero discards the socket, no FIN handshake. *)
      Unix.setsockopt_optint c1.fd Unix.SO_LINGER (Some 0);
      close_client c1;
      for _ = 1 to 50 do
        poll_all servers
      done;
      (* The reactor survived and still serves a fresh session. *)
      let c2 = connect srv in
      Fun.protect ~finally:(fun () -> close_client c2) @@ fun () ->
      hello servers c2;
      send servers c2 (Protocol.Line "create item(n = 2)");
      ignore (expect_triggered servers c2 "line after RST");
      send servers c2 Protocol.Commit;
      ignore (expect_ok servers c2 "commit after RST");
      Alcotest.(check int) "only the RST'd session died" 1
        (Server.active_conns srv)

(* --------------------------------------------------- loadgen reconnect *)

(* An ephemeral port with nothing behind it: bind, learn the number,
   close — connects to it then get ECONNREFUSED. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "unexpected socket family"
  in
  Unix.close fd;
  port

let test_loadgen_bounded_retry_gives_up () =
  let config =
    {
      Loadgen.default_config with
      Loadgen.port = free_port ();
      conns = 2;
      lines = 1;
      retry_max = 2;
      retry_base = 0.001;
      retry_cap = 0.004;
      seed = 11;
    }
  in
  match Loadgen.create config with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      let rec drive n =
        if n = 0 then Alcotest.fail "loadgen did not give up"
        else if not (Loadgen.finished t) then begin
          Loadgen.poll t ~timeout:0.01;
          drive (n - 1)
        end
      in
      drive 2000;
      let r = Loadgen.report t in
      Alcotest.(check int) "every connection failed hard" 2 r.Loadgen.errors;
      Alcotest.(check int) "nothing was sent" 0 r.Loadgen.lines_sent;
      Alcotest.(check bool)
        (Printf.sprintf "retries were scheduled and bounded (%d)"
           r.Loadgen.reconnects)
        true
        (r.Loadgen.reconnects >= 2 && r.Loadgen.reconnects <= 2 * 2)

let test_loadgen_retry_until_server_arrives () =
  let port = free_port () in
  let config =
    {
      Loadgen.default_config with
      Loadgen.port;
      conns = 2;
      lines = 5;
      commit_every = 2;
      retry_max = 12;
      retry_base = 0.002;
      retry_cap = 0.02;
      seed = 5;
    }
  in
  match Loadgen.create config with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      (* Let it bounce off the dead port a few times... *)
      for _ = 1 to 20 do
        Loadgen.poll t ~timeout:0.002
      done;
      Alcotest.(check bool) "still retrying" false (Loadgen.finished t);
      (* ...then the server shows up on that very port. *)
      let sconfig =
        {
          Server.default_config with
          Server.port;
          boot_script = Some boot_script;
        }
      in
      (match Server.create sconfig with
      | Error msg -> Alcotest.fail msg
      | Ok srv ->
          Fun.protect ~finally:(fun () -> stop_server srv) @@ fun () ->
          let rec drive n =
            if n = 0 then Alcotest.fail "loadgen did not finish"
            else if not (Loadgen.finished t) then begin
              ignore (Server.poll srv ~timeout:0.002);
              Loadgen.poll t ~timeout:0.002;
              drive (n - 1)
            end
          in
          drive 5000;
          let r = Loadgen.report t in
          Alcotest.(check int) "no hard errors" 0 r.Loadgen.errors;
          Alcotest.(check int) "every line acknowledged" 10 r.Loadgen.lines_ok;
          Alcotest.(check bool) "the refusals were retried" true
            (r.Loadgen.reconnects > 0))

(* ------------------------------------------------------ failover drill *)

let repl_caught_up mgr ~commits =
  Array.fold_left (fun acc (seq, _) -> acc + seq) 0
    (Session.Manager.repl_seqs mgr)
  >= commits

let await what servers pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.failf "%s: never happened" what
    else begin
      poll_all servers;
      go (n - 1)
    end
  in
  go 2000

let test_failover_drill () =
  let dir_a = tmp_dir "drill-primary" in
  let dir_b = tmp_dir "drill-standby" in
  let base =
    {
      Server.default_config with
      Server.engines = 2;
      domains = Some 0;
      boot_script = Some boot_script;
    }
  in
  let primary =
    match
      Server.create { base with Server.journal_dir = Some dir_a; port = 0 }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let follower =
    match
      Server.create
        {
          base with
          Server.journal_dir = Some dir_b;
          port = 0;
          follow = Some ("127.0.0.1", Server.port primary);
        }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let both = [ primary; follower ] in
  Alcotest.(check bool) "follower reports standby" true
    (Server.standby follower);
  Alcotest.(check bool) "primary does not" false (Server.standby primary);
  (* The boot transaction (seq 1 on each shard) reaches the standby
     through the stream. *)
  await "initial resync" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:2);
  (* Writes flow through the primary and replicate. *)
  let c = connect primary in
  hello ~key:" drill" both c;
  send both c (Protocol.Line "create item(n = 41)");
  ignore (expect_triggered both c "primary line");
  send both c Protocol.Commit;
  ignore (expect_ok both c "primary commit");
  await "commit replicated" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:3);
  (* Semi-synchronous gating: with the standby frozen, a COMMIT reply
     parks; it releases on the standby's ack. *)
  send both c (Protocol.Line "create item(n = 42)");
  ignore (expect_triggered both c "second line");
  send both c Protocol.Commit;
  (match recv ~polls:60 [ primary ] c with
  | `Timeout -> ()
  | `Reply r ->
      Alcotest.failf "commit answered without the follower ack: %s"
        (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.fail "connection closed while parked");
  ignore (expect_ok both c "gated commit releases");
  (* The standby itself refuses writes and says why in STATS. *)
  let cs = connect follower in
  hello both cs;
  send both cs (Protocol.Line "create item(n = 1)");
  ignore (expect_err both cs "standby" "standby write");
  send both cs Protocol.Stats;
  let stats = expect_ok both cs "standby stats" in
  Alcotest.(check bool) "stats mention standby" true
    (contains_sub stats "standby");
  (* The read path stays open on a follower: PING answers too, so a
     health probe needs no primary. *)
  send both cs (Protocol.Ping "probe");
  Alcotest.(check string) "standby answers ping" "pong probe"
    (expect_ok both cs "standby ping");
  close_client cs;
  (* Quit cleanly, then lose the primary. *)
  send both c Protocol.Quit;
  ignore (expect_ok both c "quit");
  close_client c;
  await "fully replicated" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:4);
  let primary_port = Server.port primary in
  stop_server primary;
  (* Differential: both data directories replay to the same committed
     transactions, shard by shard. *)
  List.iter
    (fun shard ->
      let name = Printf.sprintf "shard-%d.journal" shard in
      check_replay_equal
        (Printf.sprintf "failover differential, shard %d" shard)
        ~src:(Filename.concat dir_a name)
        ~copy:(Filename.concat dir_b name))
    [ 0; 1 ];
  (* Promote: SIGUSR1's handler calls exactly this. *)
  Server.request_promote follower;
  await "promotion" [ follower ] (fun () -> not (Server.standby follower));
  (* The promoted server carries the replicated state forward: the
     boot definitions are live (the trigger fires) and new commits land
     on the shipped journals. *)
  let c2 = connect follower in
  hello ~key:" drill" [ follower ] c2;
  send [ follower ] c2 (Protocol.Line "create item(n = 58)");
  ignore (expect_triggered [ follower ] c2 "post-promotion line");
  send [ follower ] c2 Protocol.Commit;
  ignore (expect_ok [ follower ] c2 "post-promotion commit");
  send [ follower ] c2 Protocol.Quit;
  ignore (expect_ok [ follower ] c2 "post-promotion quit");
  close_client c2;
  (* The old primary's address was taken over: clients reconnecting to
     it land on the promoted server. *)
  let c3 = connect_port primary_port in
  Fun.protect ~finally:(fun () -> close_client c3) @@ fun () ->
  hello [ follower ] c3;
  send [ follower ] c3 (Protocol.Ping "takeover");
  Alcotest.(check string) "ping over the taken-over port" "pong takeover"
    (expect_ok [ follower ] c3 "takeover ping");
  (* One more commit than the primary ever saw. *)
  let total_b =
    List.fold_left
      (fun acc shard ->
        match
          Journal.read
            ~path:
              (Filename.concat dir_b (Printf.sprintf "shard-%d.journal" shard))
        with
        | Ok r -> acc + r.Journal.last_commit_seq
        | Error msg -> Alcotest.fail msg)
      0 [ 0; 1 ]
  in
  Alcotest.(check int) "promoted journal carries the new commit" 5 total_b;
  stop_server follower;
  rm_rf dir_a;
  rm_rf dir_b

(* Replies leave strictly in frame-arrival order whatever the
   replication gate does: a PING pipelined in the same write as a COMMIT
   whose reply the gate parks waits for that reply instead of overtaking
   it.  Run with the primary inline and on one worker domain. *)
let test_parked_commit_order ~domains () =
  let dir_a = tmp_dir "order-primary" in
  let dir_b = tmp_dir "order-standby" in
  let base =
    {
      Server.default_config with
      Server.engines = 1;
      domains = Some domains;
      boot_script = Some boot_script;
    }
  in
  let create config =
    match Server.create config with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let primary = create { base with Server.journal_dir = Some dir_a } in
  let follower =
    create
      {
        base with
        Server.journal_dir = Some dir_b;
        follow = Some ("127.0.0.1", Server.port primary);
      }
  in
  let both = [ primary; follower ] in
  Fun.protect ~finally:(fun () ->
      stop_server primary;
      stop_server follower;
      rm_rf dir_a;
      rm_rf dir_b)
  @@ fun () ->
  await "initial resync" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:1);
  let c = connect primary in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello both c;
  send both c (Protocol.Line "create item(n = 7)");
  ignore (expect_triggered both c "line");
  (* From here the standby is frozen until the client has seen nothing. *)
  let frame cmd =
    Protocol.frame_exn ~max_frame:mf (Protocol.command_to_payload cmd)
  in
  send_raw [ primary ] c (frame Protocol.Commit ^ frame (Protocol.Ping "after"));
  (match recv ~polls:60 [ primary ] c with
  | `Timeout -> ()
  | `Reply r ->
      Alcotest.failf "a reply left before the follower ack: %s"
        (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.fail "connection closed while parked");
  Alcotest.(check string) "the commit reply first" ""
    (expect_ok both c "gated commit");
  Alcotest.(check string) "then the pipelined ping" "pong after"
    (expect_ok both c "pipelined ping")

(* ----------------- checkpoint-era replication: GC'd history, attach *)

(* With [checkpoint_every = 1] every commit checkpoints, seals and — with
   no follower attached — GCs its history: the journal alone stops being
   full history.  A follower attaching afterwards must be caught up from
   the checkpoint base the primary synthesizes onto the segment stream;
   every later seal re-bases it the same way (the idempotency guard
   skipping already-applied sequences); promotion of such a follower
   yields a working, checkpointing primary. *)
let test_checkpointed_attach_and_promote () =
  let dir_a = tmp_dir "ckpt-primary" in
  let dir_b = tmp_dir "ckpt-standby" in
  let base =
    {
      Server.default_config with
      Server.engines = 1;
      domains = Some 0;
      boot_script = Some boot_script;
      checkpoint_every = Some 1;
    }
  in
  let primary =
    match
      Server.create { base with Server.journal_dir = Some dir_a; port = 0 }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  (* Two committed transactions before any follower exists: each one
     checkpoints and seals, and with no ack floor the covered segments
     unlink — on-disk history is now checkpoint + live suffix only. *)
  let c = connect primary in
  hello ~key:" ckpt" [ primary ] c;
  List.iter
    (fun n ->
      send [ primary ] c
        (Protocol.Line (Printf.sprintf "create item(n = %d)" n));
      ignore (expect_triggered [ primary ] c "pre-attach line");
      send [ primary ] c Protocol.Commit;
      ignore (expect_ok [ primary ] c "pre-attach commit"))
    [ 41; 42 ];
  let journal_a = Filename.concat dir_a "shard-0.journal" in
  Alcotest.(check bool) "checkpoint written" true
    (Sys.file_exists (Checkpoint.path_for journal_a));
  Alcotest.(check bool) "seg 0 GC'd" false
    (Sys.file_exists (journal_a ^ ".seg-000000"));
  (* The follower attaches against GC'd history. *)
  let follower =
    match
      Server.create
        {
          base with
          Server.journal_dir = Some dir_b;
          port = 0;
          follow = Some ("127.0.0.1", Server.port primary);
        }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let both = [ primary; follower ] in
  (* Boot commit + two data commits = seq 3, reachable only through the
     shipped checkpoint base. *)
  await "resync from the checkpoint base" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:3);
  (* A post-attach commit replicates (and seals again: the follower is
     re-based mid-session, the idempotency guard holding the line). *)
  send both c (Protocol.Line "create item(n = 43)");
  ignore (expect_triggered both c "post-attach line");
  send both c Protocol.Commit;
  ignore (expect_ok both c "post-attach commit");
  await "post-attach commit replicated" both (fun () ->
      repl_caught_up (Server.manager follower) ~commits:4);
  send both c Protocol.Quit;
  ignore (expect_ok both c "quit");
  close_client c;
  stop_server primary;
  (* Promote and keep writing; the promoted shard checkpoints too. *)
  Server.request_promote follower;
  await "promotion" [ follower ] (fun () -> not (Server.standby follower));
  let c2 = connect follower in
  hello ~key:" ckpt" [ follower ] c2;
  send [ follower ] c2 (Protocol.Line "create item(n = 58)");
  ignore (expect_triggered [ follower ] c2 "post-promotion line");
  send [ follower ] c2 Protocol.Commit;
  ignore (expect_ok [ follower ] c2 "post-promotion commit");
  send [ follower ] c2 Protocol.Quit;
  ignore (expect_ok [ follower ] c2 "post-promotion quit");
  close_client c2;
  stop_server follower;
  (* The promoted shard checkpoints and GCs like any primary, so its
     journal alone is not full history — its own checkpoint is. *)
  let journal_b = Filename.concat dir_b "shard-0.journal" in
  Alcotest.(check bool) "promoted shard wrote its own checkpoint" true
    (Sys.file_exists (Checkpoint.path_for journal_b));
  (* A fresh recovery of the promoted data directory reproduces the full
     item set — 3 replicated plus 1 post-promotion create, each with its
     audit row from the boot trigger. *)
  let interp = Interp.create () in
  (* definitions only: recovery replays the operations *)
  (match Interp.run_string interp boot_script with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Engine.recover (Interp.engine interp) ~path:journal_b with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "recovery reaches the last commit" 5
        report.Engine.last_commit_seq;
      Alcotest.(check bool) "recovery booted from the checkpoint" true
        (report.Engine.booted_from_checkpoint <> None);
      let live =
        Object_store.count_live (Engine.store (Interp.engine interp))
      in
      Alcotest.(check int) "4 items + 4 audits" 8 live);
  rm_rf dir_a;
  rm_rf dir_b

let suite =
  [
    Alcotest.test_case "repl frames round-trip" `Quick
      test_repl_protocol_roundtrip;
    Alcotest.test_case "backoff schedule is bounded, jittered, seeded" `Quick
      test_backoff_schedule;
    Alcotest.test_case "tail ships committed prefixes only" `Quick
      test_tail_commit_prefix;
    Alcotest.test_case "tail follows segment rotation" `Quick
      test_tail_across_rotation;
    Alcotest.test_case "tail converges across rotation crash points" `Quick
      test_tail_rotation_failpoints;
    Alcotest.test_case "hard RST with buffered replies keeps serving" `Quick
      test_hard_close_keeps_serving;
    Alcotest.test_case "loadgen connect retry is bounded" `Quick
      test_loadgen_bounded_retry_gives_up;
    Alcotest.test_case "loadgen retries until the server arrives" `Quick
      test_loadgen_retry_until_server_arrives;
    Alcotest.test_case "failover drill: replicate, lose, promote" `Quick
      test_failover_drill;
    Alcotest.test_case "parked COMMIT order, inline" `Quick
      (test_parked_commit_order ~domains:0);
    Alcotest.test_case "parked COMMIT order, 1 domain" `Quick
      (test_parked_commit_order ~domains:1);
    Alcotest.test_case "attach over GC'd history via checkpoint base" `Quick
      test_checkpointed_attach_and_promote;
  ]
