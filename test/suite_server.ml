(* The network server suite: the wire protocol in isolation, the session
   manager in isolation, and the full reactor over real loopback sockets.

   The server and the load generator are both single-threaded pollable
   reactors, so every socket test interleaves [Server.poll] with a
   non-blocking client co-operatively in this one thread — no sleeps, no
   races, deterministic scheduling. *)

open Core

let mf = Protocol.default_max_frame

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------- protocol unit *)

let roundtrip_command c =
  match Protocol.command_of_payload (Protocol.command_to_payload c) with
  | Ok c' ->
      Alcotest.(check bool)
        (Printf.sprintf "command %s" (Protocol.command_to_payload c))
        true (c = c')
  | Error msg -> Alcotest.failf "command rejected: %s" msg

let roundtrip_reply r =
  match Protocol.reply_of_payload (Protocol.reply_to_payload r) with
  | Ok r' ->
      Alcotest.(check bool)
        (Printf.sprintf "reply %s" (Protocol.reply_to_payload r))
        true (r = r')
  | Error msg -> Alcotest.failf "reply rejected: %s" msg

let test_payload_roundtrip () =
  List.iter roundtrip_command
    [
      Protocol.Hello Protocol.version;
      Protocol.Line "create item(n = 1)";
      Protocol.Line "create item(n = 1) as X;\nshow item";
      Protocol.Commit;
      Protocol.Abort;
      Protocol.Stats;
      Protocol.Ping "";
      Protocol.Ping "tok-42";
      Protocol.Quit;
      Protocol.Sub { id = 0; binary = false; spec = "ON { tick }" };
      Protocol.Sub
        { id = 65535; binary = true; spec = "ON { tick } DO at({ tick }, X, T)" };
      Protocol.Unsub { id = 7 };
    ];
  List.iter roundtrip_reply
    [
      Protocol.Ok_ "";
      Protocol.Ok_ "pong tok";
      Protocol.Ok_ "line one\nline two";
      Protocol.Triggered [ "onItem" ];
      Protocol.Triggered [ "a"; "b"; "c" ];
      Protocol.Err ("proto", "bad thing happened");
      Protocol.Err ("shutdown", "draining");
    ];
  (match Protocol.command_of_payload "FROBNICATE now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb accepted");
  match Protocol.reply_of_payload "WAT" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown reply verb accepted"

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.to_string b

let test_decode_frames () =
  let payload = "PING deadbeef" in
  let frame = Protocol.frame_exn ~max_frame:mf payload in
  let bytes = Bytes.of_string frame in
  (* Intact frame. *)
  (match Protocol.decode ~max_frame:mf bytes ~off:0 ~len:(Bytes.length bytes) with
  | Protocol.Frame (p, used) ->
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "used" (String.length frame) used
  | _ -> Alcotest.fail "intact frame not decoded");
  (* Every strict prefix is torn, never an error. *)
  for len = 0 to Bytes.length bytes - 1 do
    match Protocol.decode ~max_frame:mf bytes ~off:0 ~len with
    | Protocol.Need_more -> ()
    | _ -> Alcotest.failf "prefix of %d bytes not Need_more" len
  done;
  (* Zero-length frame: rejected frame-locally, stream stays framed. *)
  (match
     Protocol.decode ~max_frame:mf (Bytes.of_string (be32 0)) ~off:0 ~len:4
   with
  | Protocol.Reject (_, 4) -> ()
  | _ -> Alcotest.fail "zero-length frame not Reject");
  (* Over the cap and u32-max length prefixes: framing is lost. *)
  List.iter
    (fun n ->
      match
        Protocol.decode ~max_frame:mf (Bytes.of_string (be32 n)) ~off:0 ~len:4
      with
      | Protocol.Corrupt _ -> ()
      | _ -> Alcotest.failf "length %d not Corrupt" n)
    [ mf + 1; 0x7fffffff; 0xffffffff ];
  (* An off/len range outside the buffer must not raise. *)
  (match Protocol.decode ~max_frame:mf bytes ~off:2 ~len:(Bytes.length bytes) with
  | Protocol.Corrupt _ -> ()
  | _ -> Alcotest.fail "out-of-range slice not Corrupt");
  (* Encoding refuses what decoding would reject. *)
  (match Protocol.frame_into ~max_frame:mf (Buffer.create 8) "" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty payload framed");
  match
    Protocol.frame_into ~max_frame:16 (Buffer.create 8) (String.make 17 'x')
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized payload framed"

(* The event-codec regression (the decode-must-not-raise bugfix):
   negative or overflowed numeric fields return [Error]. *)
let test_event_codec_rejects_bad_numbers () =
  let eb = Event_base.create () in
  let occ =
    Event_base.record eb
      ~etype:(Event_type.external_ ~name:"tick" ~class_name:"")
      ~oid:(Ident.Oid.of_int 7)
  in
  let line = Event_codec.occurrence_line occ in
  let fields = String.split_on_char '\t' line in
  let patched i v =
    String.concat "\t" (List.mapi (fun j f -> if i = j then v else f) fields)
  in
  (match Event_codec.parse_occurrence_line line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid line rejected: %s" msg);
  List.iter
    (fun bad ->
      match Event_codec.parse_occurrence_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [
      patched 2 "-1" (* negative oid *);
      patched 3 "-5" (* negative timestamp *);
      patched 3 "99999999999999999999" (* precision overflow *);
      patched 2 "7x" (* trailing garbage *);
    ]

(* ------------------------------------------------- binary frame codec *)

(* 1000 random records through the binary encoder and back: the decode is
   the exact inverse, frame shape checks agree, and the text EVENT twin
   carries the same fields — the two ingestion paths cannot drift. *)
let test_binary_roundtrip () =
  let rng = Random.State.make [| 0xb1a4 |] in
  let random_record () =
    {
      Protocol.etype_id = Random.State.int rng (Protocol.max_etype_id + 1);
      oid = Random.State.full_int rng 0x10000000000;
      timestamp = Random.State.full_int rng 0x10000000000;
    }
  in
  for case = 1 to 1000 do
    let r = random_record () in
    (* Single EVENT payload. *)
    let payload =
      Protocol.encode_event ~etype_id:r.Protocol.etype_id ~oid:r.Protocol.oid
        ~timestamp:r.Protocol.timestamp
    in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: EVENT payload is binary" case)
      true
      (Protocol.is_binary_payload payload);
    (match Protocol.check_binary payload with
    | Ok 1 -> ()
    | Ok n -> Alcotest.failf "case %d: EVENT counted as %d records" case n
    | Error msg -> Alcotest.failf "case %d: EVENT shape rejected: %s" case msg);
    (match Protocol.decode_binary payload with
    | Ok [ r' ] ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d: EVENT round trip" case)
          true (r = r')
    | Ok _ -> Alcotest.failf "case %d: EVENT decoded to several records" case
    | Error msg -> Alcotest.failf "case %d: EVENT rejected: %s" case msg);
    (* BATCH payload of 1..8 records. *)
    let records = List.init (1 + Random.State.int rng 8) (fun _ -> random_record ()) in
    let payload = Protocol.encode_batch records in
    (match Protocol.check_binary payload with
    | Ok n when n = List.length records -> ()
    | Ok n -> Alcotest.failf "case %d: BATCH counted as %d records" case n
    | Error msg -> Alcotest.failf "case %d: BATCH shape rejected: %s" case msg);
    (match Protocol.decode_binary payload with
    | Ok records' ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d: BATCH round trip" case)
          true (records = records')
    | Error msg -> Alcotest.failf "case %d: BATCH rejected: %s" case msg);
    (* The text twin: an EVENT verb carrying the same oid round-trips
       through the command grammar. *)
    let oid = r.Protocol.oid in
    match
      Protocol.command_of_payload
        (Protocol.command_to_payload (Protocol.Event { etype = "tick"; oid }))
    with
    | Ok (Protocol.Event { etype = "tick"; oid = oid' }) when oid = oid' -> ()
    | Ok _ -> Alcotest.failf "case %d: text EVENT drifted" case
    | Error msg -> Alcotest.failf "case %d: text EVENT rejected: %s" case msg
  done

(* Decode totality: 1000 random payloads (random bytes, plus mutations of
   valid frames) never raise — they decode or return [Error].  The
   specific rejection classes are pinned alongside. *)
let test_binary_decode_totality () =
  let rng = Random.State.make [| 0x70a1 |] in
  let survives payload =
    (match Protocol.check_binary payload with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "check_binary raised %s on %S" (Printexc.to_string e)
          payload);
    match Protocol.decode_binary payload with
    | Ok records ->
        (* A successful decode implies the shape check agreed. *)
        let n = List.length records in
        (match Protocol.check_binary payload with
        | Ok n' when n = n' -> ()
        | _ -> Alcotest.failf "decode/check disagree on %S" payload)
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode_binary raised %s on %S" (Printexc.to_string e)
          payload
  in
  for _ = 1 to 500 do
    (* Arbitrary bytes, biased towards control-tag prefixes. *)
    let len = Random.State.int rng 64 in
    let payload =
      String.init len (fun i ->
          if i = 0 && Random.State.bool rng then
            Char.chr (Random.State.int rng 0x20)
          else Char.chr (Random.State.int rng 256))
    in
    survives payload
  done;
  for _ = 1 to 500 do
    (* Mutations of a valid frame: truncate, extend, or flip one byte. *)
    let records =
      List.init
        (1 + Random.State.int rng 4)
        (fun i -> { Protocol.etype_id = i; oid = i; timestamp = i })
    in
    let valid =
      if Random.State.bool rng then Protocol.encode_batch records
      else Protocol.encode_event ~etype_id:1 ~oid:2 ~timestamp:3
    in
    let payload =
      match Random.State.int rng 3 with
      | 0 -> String.sub valid 0 (Random.State.int rng (String.length valid))
      | 1 -> valid ^ String.make (1 + Random.State.int rng 8) '\x00'
      | _ ->
          let i = Random.State.int rng (String.length valid) in
          String.mapi
            (fun j c ->
              if i = j then Char.chr (Char.code c lxor (1 + Random.State.int rng 255))
              else c)
            valid
    in
    survives payload
  done;
  (* Pinned rejection classes. *)
  let record20 = String.make 20 '\x00' in
  let expect_error what payload =
    match Protocol.decode_binary payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  expect_error "empty payload" "";
  expect_error "unknown tag" ("\x03" ^ record20);
  expect_error "short EVENT" ("\x01" ^ String.sub record20 0 19);
  expect_error "long EVENT" ("\x01" ^ record20 ^ "\x00");
  expect_error "BATCH count mismatch" ("\x02\x00\x00\x00\x02" ^ record20);
  expect_error "BATCH of zero records" "\x02\x00\x00\x00\x00";
  (* A u64 field past OCaml's 63-bit int: shape fine, field overflow. *)
  let overflow =
    "\x01" ^ String.make 4 '\x00' ^ "\xff" ^ String.make 7 '\x00'
    ^ String.make 8 '\x00'
  in
  (match Protocol.check_binary overflow with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "overflow record has valid shape");
  expect_error "u64 overflow" overflow

(* -------------------------------------------------- session manager unit *)

let boot_script =
  "define class item (n: integer);\n\
   define class audit (tag: string);\n\
   define immediate trigger onItem for item\n\
  \  events { create(item) }\n\
  \  condition item(I), occurred({ create(item) }, I), I.n > 0\n\
  \  actions create audit(tag = \"item\")\n\
   end;\n"

let feed mgr sid cmd =
  Session.Manager.on_payload mgr sid (Protocol.command_to_payload cmd)

let greet mgr sid =
  match feed mgr sid (Protocol.Hello Protocol.version) with
  | [ Session.Manager.Reply (_, Protocol.Ok_ _) ] -> ()
  | _ -> Alcotest.fail "greeting failed"

let test_manager_queueing_and_overflow () =
  let mgr =
    match
      Session.Manager.create ~engines:1 ~boot_script ~max_pending:2 ()
    with
    | Ok mgr -> mgr
    | Error msg -> Alcotest.fail msg
  in
  let s1 = Session.Manager.open_session mgr in
  let s2 = Session.Manager.open_session mgr in
  greet mgr s1;
  greet mgr s2;
  (* s1 opens a transaction and holds the single shard. *)
  (match feed mgr s1 (Protocol.Line "create item(n = 1)") with
  | [ Session.Manager.Reply (sid, Protocol.Triggered [ "onItem" ]) ] ->
      Alcotest.(check int) "reply to s1" s1 sid
  | _ -> Alcotest.fail "s1 line not triggered");
  Alcotest.(check bool) "s1 in tx" true (Session.Manager.in_transaction mgr s1);
  (* s2 queues behind the busy shard: no reply, marked blocked. *)
  (match feed mgr s2 (Protocol.Line "create item(n = 2)") with
  | [] -> ()
  | _ -> Alcotest.fail "queued command replied early");
  Alcotest.(check bool) "s2 blocked" true (Session.Manager.blocked mgr s2);
  (* The pending bound: one more queues, the next overflows and closes. *)
  (match feed mgr s2 Protocol.Commit with
  | [] -> ()
  | _ -> Alcotest.fail "second queued command replied early");
  (match feed mgr s2 Protocol.Commit with
  | [
   Session.Manager.Reply (_, Protocol.Err ("overflow", _));
   Session.Manager.Close sid;
  ] ->
      Alcotest.(check int) "closed s2" s2 sid
  | _ -> Alcotest.fail "pending overflow not enforced");
  (* s3 queues; s1's disconnect aborts its transaction and the waiter's
     reply surfaces from the disconnect call that freed the shard. *)
  let s3 = Session.Manager.open_session mgr in
  greet mgr s3;
  (match feed mgr s3 (Protocol.Line "create item(n = 3)") with
  | [] -> ()
  | _ -> Alcotest.fail "s3 not queued");
  (match Session.Manager.disconnect mgr s1 with
  | [ Session.Manager.Reply (sid, Protocol.Triggered [ "onItem" ]) ] ->
      Alcotest.(check int) "woken waiter" s3 sid
  | _ -> Alcotest.fail "disconnect did not wake the waiter");
  (match feed mgr s3 Protocol.Commit with
  | [ Session.Manager.Reply (_, Protocol.Ok_ _) ] -> ()
  | _ -> Alcotest.fail "s3 commit failed");
  Session.Manager.shutdown mgr

(* A HELLO session key re-pins the session before any engine traffic:
   the shard is [Fnv.hash key mod engines], not whatever the connection
   order happened to give. *)
let test_manager_hello_key_repin () =
  let mgr =
    match Session.Manager.create ~engines:4 ~boot_script () with
    | Ok mgr -> mgr
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Session.Manager.shutdown mgr) @@ fun () ->
  let keys = List.init 32 (fun i -> Printf.sprintf "tenant-%04d" i) in
  List.iter
    (fun key ->
      let sid = Session.Manager.open_session mgr in
      (match
         feed mgr sid (Protocol.Hello (Protocol.version ^ " " ^ key))
       with
      | [ Session.Manager.Reply (_, Protocol.Ok_ _) ] -> ()
      | _ -> Alcotest.failf "keyed greeting failed for %s" key);
      Alcotest.(check int)
        (Printf.sprintf "pinned by key %s" key)
        (Fnv.hash key mod 4)
        (Session.Manager.shard_of_session mgr sid))
    keys;
  (* Same key, same shard — a reconnecting client lands on its data. *)
  let a = Session.Manager.open_session mgr in
  let b = Session.Manager.open_session mgr in
  List.iter
    (fun sid -> ignore (feed mgr sid (Protocol.Hello (Protocol.version ^ " sticky"))))
    [ a; b ];
  Alcotest.(check int) "same key, same shard"
    (Session.Manager.shard_of_session mgr a)
    (Session.Manager.shard_of_session mgr b)

(* ------------------------------------------------------- socket harness *)

type client = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 4096; len = 0 }

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

let send_raw srv c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error
          ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
          ignore (Server.poll srv ~timeout:0.005);
          go off
  in
  go 0

let send srv c cmd =
  send_raw srv c
    (Protocol.frame_exn ~max_frame:mf (Protocol.command_to_payload cmd))

(* Pulls the next reply, interleaving server polls with client reads;
   [`Timeout] after [polls] turns without one (used to assert that a
   reply must NOT arrive, with a small budget). *)
let recv ?(polls = 400) srv c =
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
          ignore (Server.poll srv ~timeout:0.005);
          match client_read c with
          | `Eof -> ( match take () with Some r -> `Reply r | None -> `Eof)
          | `Read | `Nothing -> go (polls - 1)
        end
  in
  go polls

let expect_ok srv c what =
  match recv srv c with
  | `Reply (Protocol.Ok_ s) -> s
  | `Reply r ->
      Alcotest.failf "%s: expected OK, got %s" what (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.failf "%s: connection closed" what
  | `Timeout -> Alcotest.failf "%s: no reply" what

let expect_triggered srv c what =
  match recv srv c with
  | `Reply (Protocol.Triggered rules) -> rules
  | `Reply r ->
      Alcotest.failf "%s: expected TRIGGERED, got %s" what
        (Protocol.reply_to_payload r)
  | `Eof | `Timeout -> Alcotest.failf "%s: no TRIGGERED reply" what

let expect_err srv c code what =
  match recv srv c with
  | `Reply (Protocol.Err (got, msg)) ->
      Alcotest.(check string) (what ^ ": code") code got;
      msg
  | `Reply r ->
      Alcotest.failf "%s: expected ERR %s, got %s" what code
        (Protocol.reply_to_payload r)
  | `Eof -> Alcotest.failf "%s: connection closed" what
  | `Timeout -> Alcotest.failf "%s: no reply" what

let expect_eof ?(polls = 400) srv c =
  match recv ~polls srv c with
  | `Eof -> ()
  | `Reply r ->
      Alcotest.failf "expected EOF, got %s" (Protocol.reply_to_payload r)
  | `Timeout -> Alcotest.fail "expected EOF, connection still open"

let hello srv c =
  send srv c (Protocol.Hello Protocol.version);
  let info = expect_ok srv c "hello" in
  Alcotest.(check bool)
    "greeting carries the version" true
    (contains_sub info Protocol.version)

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

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

let with_server ?(config = Server.default_config) f =
  match Server.create { config with Server.port = 0 } with
  | Error msg -> Alcotest.fail msg
  | Ok srv -> Fun.protect ~finally:(fun () -> stop_server srv) (fun () -> f srv)

let with_boot_server ?(config = Server.default_config) f =
  with_server ~config:{ config with Server.boot_script = Some boot_script } f

(* --------------------------------------------------------- socket tests *)

let test_socket_roundtrip () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  send srv c (Protocol.Ping "tok");
  Alcotest.(check string) "ping echo" "pong tok" (expect_ok srv c "ping");
  send srv c (Protocol.Line "create item(n = 1) as X");
  Alcotest.(check (list string))
    "trigger executed" [ "onItem" ]
    (expect_triggered srv c "line");
  send srv c (Protocol.Line "show audit");
  Alcotest.(check bool)
    "audit visible in the open tx" true
    (contains_sub (expect_ok srv c "show") "audit (1)");
  send srv c Protocol.Commit;
  Alcotest.(check string) "commit" "" (expect_ok srv c "commit");
  send srv c Protocol.Stats;
  let stats = expect_ok srv c "stats" in
  Alcotest.(check bool) "engine stats" true (contains_sub stats "engine:");
  Alcotest.(check bool) "server stats" true (contains_sub stats "server:");
  send srv c Protocol.Quit;
  Alcotest.(check string) "bye" "bye" (expect_ok srv c "quit");
  expect_eof srv c

let test_socket_protocol_errors () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  (* Engine verbs before HELLO. *)
  send srv c Protocol.Commit;
  ignore (expect_err srv c "proto" "commit before hello");
  send srv c (Protocol.Line "create item(n = 1)");
  ignore (expect_err srv c "proto" "line before hello");
  hello srv c;
  (* COMMIT with no open transaction. *)
  send srv c Protocol.Commit;
  ignore (expect_err srv c "state" "commit without tx");
  (* A garbage verb inside a well-formed frame: ERR, connection lives. *)
  send_raw srv c (Protocol.frame_exn ~max_frame:mf "FROBNICATE now");
  ignore (expect_err srv c "proto" "garbage verb");
  (* A zero-length frame: rejected frame-locally, connection lives. *)
  send_raw srv c (be32 0);
  ignore (expect_err srv c "proto" "zero-length frame");
  send srv c (Protocol.Ping "");
  Alcotest.(check string) "alive after rejects" "pong" (expect_ok srv c "ping");
  (* commit; must travel as the COMMIT verb. *)
  send srv c (Protocol.Line "create item(n = 1);\ncommit;");
  ignore (expect_err srv c "proto" "commit inside LINE");
  (* A parse error and an engine error both keep the connection. *)
  send srv c (Protocol.Line "craete item(n = 1)");
  ignore (expect_err srv c "parse" "parse error");
  send srv c (Protocol.Line "create ghost(n = 1)");
  ignore (expect_err srv c "engine" "unknown class");
  (* The failed block rolled back but the transaction stayed the
     client's to close... *)
  send srv c Protocol.Abort;
  Alcotest.(check string) "abort" "aborted" (expect_ok srv c "abort");
  (* ...and a second ABORT has nothing to close. *)
  send srv c Protocol.Abort;
  ignore (expect_err srv c "state" "abort without tx");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

let test_socket_oversized_frame_closes () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  (* A length prefix beyond the cap loses framing: ERR oversize, close. *)
  send_raw srv c (be32 (mf + 1));
  ignore (expect_err srv c "oversize" "oversized frame");
  expect_eof srv c;
  (* A u32-max prefix (the length-overflow regression) on a fresh
     connection behaves the same. *)
  let c2 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c2) @@ fun () ->
  hello srv c2;
  send_raw srv c2 (be32 0xffffffff);
  ignore (expect_err srv c2 "oversize" "overflowed length prefix");
  expect_eof srv c2

let test_socket_torn_frame () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  let frame = Protocol.frame_exn ~max_frame:mf "PING torn" in
  let cut = String.length frame - 3 in
  send_raw srv c (String.sub frame 0 cut);
  (match recv ~polls:10 srv c with
  | `Timeout -> ()
  | _ -> Alcotest.fail "torn frame answered early");
  send_raw srv c (String.sub frame cut (String.length frame - cut));
  Alcotest.(check string) "completed frame" "pong torn" (expect_ok srv c "ping")

let test_socket_wrong_version_closes () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  send srv c (Protocol.Hello "bogus/9");
  ignore (expect_err srv c "proto" "wrong version");
  expect_eof srv c

let test_socket_shard_fifo () =
  with_boot_server ~config:{ Server.default_config with Server.engines = 1 }
  @@ fun srv ->
  let c1 = connect srv in
  let c2 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c1; close_client c2)
  @@ fun () ->
  hello srv c1;
  hello srv c2;
  send srv c1 (Protocol.Line "create item(n = 1)");
  ignore (expect_triggered srv c1 "c1 line");
  (* c2 queues behind c1's transaction: no reply while c1 holds the shard. *)
  send srv c2 (Protocol.Line "create item(n = 2)");
  (match recv ~polls:20 srv c2 with
  | `Timeout -> ()
  | _ -> Alcotest.fail "c2 answered while the shard was held");
  send srv c1 Protocol.Commit;
  ignore (expect_ok srv c1 "c1 commit");
  ignore (expect_triggered srv c2 "c2 line after release");
  send srv c2 Protocol.Commit;
  ignore (expect_ok srv c2 "c2 commit")

let test_socket_backpressure_slow_reader () =
  with_boot_server
    ~config:{ Server.default_config with Server.high_water = 256 }
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  (* Pipeline many pings without reading a byte back: the reply buffer
     crosses the high-water mark, the server stops reading this
     connection, and nothing is lost or reordered once we drain. *)
  let n = 100 in
  let all = Buffer.create (n * 16) in
  for i = 1 to n do
    Buffer.add_string all
      (Protocol.frame_exn ~max_frame:mf
         (Protocol.command_to_payload (Protocol.Ping (string_of_int i))))
  done;
  send_raw srv c (Buffer.contents all);
  for _ = 1 to 20 do
    ignore (Server.poll srv ~timeout:0.001)
  done;
  Alcotest.(check int) "still connected" 1 (Server.active_conns srv);
  for i = 1 to n do
    Alcotest.(check string)
      (Printf.sprintf "pong %d" i)
      ("pong " ^ string_of_int i)
      (expect_ok srv c "ping")
  done;
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

let test_socket_idle_timeout () =
  with_boot_server
    ~config:{ Server.default_config with Server.idle_timeout = 0.05 }
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  let msg = expect_err srv c "shutdown" "idle reaping" in
  Alcotest.(check bool) "names the timeout" true (contains_sub msg "idle");
  expect_eof srv c

let test_socket_max_conns_rejects () =
  with_boot_server ~config:{ Server.default_config with Server.max_conns = 1 }
  @@ fun srv ->
  let c1 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c1) @@ fun () ->
  hello srv c1;
  let c2 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c2) @@ fun () ->
  ignore (expect_err srv c2 "busy" "admission cap");
  expect_eof srv c2;
  (* The admitted connection is unaffected. *)
  send srv c1 (Protocol.Ping "");
  Alcotest.(check string) "first conn lives" "pong" (expect_ok srv c1 "ping")

(* Graceful drain mid-transaction: buffered work finishes, clients get
   the shutdown notice, journals close flushed — and replay cleanly,
   without the aborted transaction. *)
let test_socket_drain_and_recover () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chimera-serve-test-%d" (Unix.getpid ()))
  in
  let config =
    {
      Server.default_config with
      Server.engines = 2;
      boot_script = Some boot_script;
      journal_dir = Some dir;
    }
  in
  (match Server.create { config with Server.port = 0 } with
  | Error msg -> Alcotest.fail msg
  | Ok srv ->
      let c1 = connect srv in
      let c2 = connect srv in
      Fun.protect ~finally:(fun () -> close_client c1; close_client c2)
      @@ fun () ->
      hello srv c1;
      hello srv c2;
      (* c1 commits an item; c2 leaves one uncommitted. *)
      send srv c1 (Protocol.Line "create item(n = 1)");
      ignore (expect_triggered srv c1 "c1 line");
      send srv c1 Protocol.Commit;
      ignore (expect_ok srv c1 "c1 commit");
      send srv c2 (Protocol.Line "create item(n = 2)");
      (match recv ~polls:100 srv c2 with
      | `Reply (Protocol.Triggered _) | `Timeout -> ()
      | r ->
          Alcotest.failf "c2 line: unexpected %s"
            (match r with
            | `Reply r -> Protocol.reply_to_payload r
            | `Eof -> "EOF"
            | `Timeout -> assert false));
      let journals = Session.Manager.journal_paths (Server.manager srv) in
      Alcotest.(check int) "one journal per shard" 2 (List.length journals);
      Server.request_drain srv;
      let rec drive n =
        if n = 0 then Alcotest.fail "drain did not complete"
        else
          match Server.poll srv ~timeout:0.005 with
          | Server.Stopped -> ()
          | Server.Running ->
              ignore (client_read c1);
              ignore (client_read c2);
              drive (n - 1)
      in
      drive 1000;
      Alcotest.(check bool) "draining reported" true (Server.draining srv);
      (* Both clients were notified before their sockets closed. *)
      List.iter
        (fun c ->
          ignore (client_read c);
          match Protocol.decode ~max_frame:mf c.buf ~off:0 ~len:c.len with
          | Protocol.Frame (payload, _) -> (
              match Protocol.reply_of_payload payload with
              | Ok (Protocol.Err ("shutdown", _)) -> ()
              | Ok (Protocol.Triggered _) -> ()
              | _ -> Alcotest.failf "unexpected drain reply %S" payload)
          | _ -> Alcotest.fail "no drain notice buffered")
        [ c1; c2 ];
      (* Replay every shard journal into a fresh engine: only committed
         state survives (the boot commit plus c1's transaction). *)
      let live =
        List.fold_left
          (fun acc path ->
            let interp = Interp.create () in
            (match
               Interp.run_string interp
                 "define class item (n: integer);\n\
                  define class audit (tag: string);"
             with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg);
            match Engine.recover (Interp.engine interp) ~path with
            | Error msg -> Alcotest.failf "recover %s: %s" path msg
            | Ok report ->
                Alcotest.(check bool)
                  "boot commit journaled" true
                  (report.Engine.recovered_commits >= 1);
                acc
                + Object_store.count_live (Engine.store (Interp.engine interp)))
          0 journals
      in
      Alcotest.(check int) "item + audit committed, nothing else" 2 live);
  (* Temp cleanup. *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* The tentpole end to end: 4 shards on 2 worker domains, keyed sessions
   on distinct shards running transactions concurrently, then a clean
   drain that joins every domain (stop_server → Manager.shutdown). *)
let test_socket_multidomain () =
  with_boot_server
    ~config:
      { Server.default_config with Server.engines = 4; domains = Some 2 }
  @@ fun srv ->
  Alcotest.(check int) "worker domains running" 2
    (Session.Manager.domains (Server.manager srv));
  (* Four keys that pin to four distinct shards (checked below), so the
     four transactions really are concurrent — none queues behind
     another's shard. *)
  let keys = [ "alpha"; "charlie"; "echo"; "juliet" ] in
  let pins = List.map (fun k -> Fnv.hash k mod 4) keys in
  Alcotest.(check int) "keys cover all shards" 4
    (List.length (List.sort_uniq Int.compare pins));
  let clients =
    List.map
      (fun key ->
        let c = connect srv in
        send srv c (Protocol.Hello (Protocol.version ^ " " ^ key));
        ignore (expect_ok srv c ("hello " ^ key));
        (key, c))
      keys
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, c) -> close_client c) clients)
  @@ fun () ->
  (* Interleave: every client opens a transaction, then all commit. *)
  List.iteri
    (fun i (key, c) ->
      send srv c (Protocol.Line (Printf.sprintf "create item(n = %d)" (i + 1)));
      ignore (expect_triggered srv c ("line " ^ key)))
    clients;
  List.iter
    (fun (key, c) ->
      send srv c Protocol.Commit;
      Alcotest.(check string) ("commit " ^ key) ""
        (expect_ok srv c ("commit " ^ key)))
    clients;
  (* STATS executes on the worker owning the shard and round-trips. *)
  let _, c0 = List.hd clients in
  send srv c0 Protocol.Stats;
  let stats = expect_ok srv c0 "stats" in
  Alcotest.(check bool) "stats from the worker" true
    (contains_sub stats "engine:");
  List.iter
    (fun (key, c) ->
      send srv c Protocol.Quit;
      Alcotest.(check string) ("bye " ^ key) "bye" (expect_ok srv c "quit");
      expect_eof srv c)
    clients

(* ------------------------------------------------- loadgen + differential *)

let test_loadgen_in_process () =
  with_boot_server ~config:{ Server.default_config with Server.engines = 4 }
  @@ fun srv ->
  let lg =
    match
      Loadgen.create
        {
          Loadgen.default_config with
          Loadgen.port = Server.port srv;
          conns = 8;
          lines = 25;
          commit_every = 5;
        }
    with
    | Ok lg -> lg
    | Error msg -> Alcotest.fail msg
  in
  let rec drive n =
    if Loadgen.finished lg then ()
    else if n = 0 then Alcotest.fail "loadgen did not finish"
    else begin
      ignore (Server.poll srv ~timeout:0.001);
      Loadgen.poll lg ~timeout:0.001;
      drive (n - 1)
    end
  in
  drive 100_000;
  let r = Loadgen.report lg in
  Alcotest.(check int) "no protocol errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "every line answered" (8 * 25) r.Loadgen.lines_ok;
  Alcotest.(check int) "every line triggered" (8 * 25) r.Loadgen.triggered;
  Alcotest.(check int) "commits" (8 * 5) r.Loadgen.commits

(* The differential check: a scripted socket session must produce, reply
   by reply, the verdicts of driving the engine directly — same TRIGGERED
   rule lists, same inspection output, same error surface. *)
let differential_lines =
  [
    `Line "create item(n = 1) as A";
    `Line "create item(n = 0) as B";
    `Line "modify A.n = 5";
    `Line "show item";
    `Commit;
    `Line "create item(n = 2);\ncreate item(n = 3)";
    `Line "show audit";
    `Line "create ghost(n = 1)";
    `Abort;
    `Line "show audit";
    `Commit;
  ]

(* The direct-drive reference implements the documented LINE semantics by
   hand: per-line executed-rule capture, per-line output, errors as ERR. *)
let direct_verdicts () =
  let interp = Interp.create () in
  (match Interp.run_string interp boot_script with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Engine.commit (Interp.engine interp) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "boot commit");
  Interp.clear_output interp;
  let executed = ref [] in
  Engine.set_on_execution (Interp.engine interp) (fun name ->
      executed := name :: !executed);
  let trim s =
    let n = ref (String.length s) in
    while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do
      decr n
    done;
    String.sub s 0 !n
  in
  let run_statements statements =
    executed := [];
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
        match List.rev !executed with
        | [] -> Protocol.Ok_ (trim (Interp.output interp))
        | rules -> Protocol.Triggered rules)
  in
  List.map
    (fun step ->
      match step with
      | `Line text -> (
          match Lang_parser.parse text with
          | Error msg -> Protocol.Err ("parse", msg)
          | Ok statements -> run_statements statements)
      | `Commit -> (
          executed := [];
          match Engine.commit (Interp.engine interp) with
          | Ok () -> (
              match List.rev !executed with
              | [] -> Protocol.Ok_ ""
              | rules -> Protocol.Triggered rules)
          | Error e ->
              Engine.abort (Interp.engine interp);
              Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e))
      | `Abort ->
          Engine.abort (Interp.engine interp);
          Protocol.Ok_ "aborted")
    differential_lines

let test_differential_socket_vs_direct () =
  let expected = direct_verdicts () in
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  let got =
    List.map
      (fun step ->
        send srv c
          (match step with
          | `Line text -> Protocol.Line text
          | `Commit -> Protocol.Commit
          | `Abort -> Protocol.Abort);
        match recv srv c with
        | `Reply r -> r
        | `Eof -> Alcotest.fail "connection closed mid-scenario"
        | `Timeout -> Alcotest.fail "no reply mid-scenario")
      differential_lines
  in
  List.iteri
    (fun i (want, have) ->
      Alcotest.(check string)
        (Printf.sprintf "step %d" i)
        (Protocol.reply_to_payload want)
        (Protocol.reply_to_payload have))
    (List.combine expected got);
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

(* ------------------------------------------- binary ingestion sockets *)

(* A boot script whose trigger subscribes to the external event type the
   binary frames carry, so every ingested record visibly executes a
   rule — the replies prove the events reached the rule engine, not just
   the wire. *)
let tick_boot_script =
  "define class audit (tag: string);\n\
   define immediate trigger onTick\n\
  \  events { tick }\n\
  \  actions create audit(tag = \"tick\")\n\
   end;\n"

let send_binary srv c payload =
  send_raw srv c (Protocol.frame_exn ~max_frame:mf payload)

let test_socket_binary_ingest () =
  with_server
    ~config:{ Server.default_config with boot_script = Some tick_boot_script }
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  send srv c (Protocol.Hello Protocol.version);
  let info = expect_ok srv c "hello" in
  List.iter
    (fun feature ->
      Alcotest.(check bool)
        (Printf.sprintf "greeting advertises %s" feature)
        true (contains_sub info feature))
    [ "bin"; "pipe"; "window=" ];
  send srv c (Protocol.Etype { id = 0; name = "tick" });
  ignore (expect_ok srv c "etype");
  (* One binary EVENT: the trigger fires once. *)
  send_binary srv c (Protocol.encode_event ~etype_id:0 ~oid:1 ~timestamp:0);
  Alcotest.(check (list string))
    "EVENT executed the trigger" [ "onTick" ]
    (expect_triggered srv c "binary event");
  (* One BATCH of three: one reply, three executions in order. *)
  send_binary srv c
    (Protocol.encode_batch
       (List.init 3 (fun i ->
            { Protocol.etype_id = 0; oid = 2 + i; timestamp = 0 })));
  Alcotest.(check (list string))
    "BATCH executed per record" [ "onTick"; "onTick"; "onTick" ]
    (expect_triggered srv c "binary batch");
  (* The trigger's actions are visible in the open transaction. *)
  send srv c (Protocol.Line "show audit");
  Alcotest.(check bool)
    "audits from binary events" true
    (contains_sub (expect_ok srv c "show") "audit (4)");
  send srv c Protocol.Commit;
  ignore (expect_ok srv c "commit");
  (* Re-announcing an id rebinds it; an id never announced is refused. *)
  send srv c (Protocol.Etype { id = 0; name = "tock" });
  ignore (expect_ok srv c "etype rebind");
  send_binary srv c (Protocol.encode_event ~etype_id:0 ~oid:9 ~timestamp:0);
  (match recv srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | r ->
      Alcotest.failf "rebound etype: %s"
        (match r with
        | `Reply r -> Protocol.reply_to_payload r
        | `Eof -> "EOF"
        | `Timeout -> "timeout"))
  ;
  send srv c Protocol.Abort;
  ignore (expect_ok srv c "abort");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

let test_socket_binary_errors () =
  with_server
    ~config:{ Server.default_config with boot_script = Some tick_boot_script }
  @@ fun srv ->
  (* Binary frames before HELLO are a protocol error. *)
  let c0 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c0) @@ fun () ->
  send_binary srv c0 (Protocol.encode_event ~etype_id:0 ~oid:1 ~timestamp:0);
  ignore (expect_err srv c0 "proto" "binary before hello");
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  (* Unknown etype id: announce-first is enforced per session. *)
  send_binary srv c (Protocol.encode_event ~etype_id:0 ~oid:1 ~timestamp:0);
  let msg = expect_err srv c "proto" "unannounced etype id" in
  Alcotest.(check bool) "names ETYPE" true (contains_sub msg "ETYPE");
  (* Unknown tag byte: frame-local reject, the connection lives. *)
  send_binary srv c ("\x1f" ^ String.make 20 '\x00');
  ignore (expect_err srv c "proto" "unknown binary tag");
  (* A BATCH whose count disagrees with its length: same. *)
  send_binary srv c ("\x02\x00\x00\x00\x05" ^ String.make 20 '\x00');
  ignore (expect_err srv c "proto" "batch count mismatch");
  (* A u64 field past the 63-bit int range: rejected on the worker. *)
  send srv c (Protocol.Etype { id = 0; name = "tick" });
  ignore (expect_ok srv c "etype");
  send_binary srv c
    ("\x01" ^ String.make 4 '\x00' ^ "\xff" ^ String.make 15 '\x00');
  ignore (expect_err srv c "proto" "u64 overflow");
  (* ETYPE ids above the cap are refused. *)
  send srv c (Protocol.Etype { id = Protocol.max_etype_id + 1; name = "x" });
  ignore (expect_err srv c "proto" "etype id over the cap");
  (* After all of that the session still ingests. *)
  send_binary srv c (Protocol.encode_event ~etype_id:0 ~oid:1 ~timestamp:0);
  Alcotest.(check (list string))
    "session survives the rejects" [ "onTick" ]
    (expect_triggered srv c "binary event");
  send srv c Protocol.Abort;
  ignore (expect_ok srv c "abort");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

(* The load generator's pipelined binary mode against a live server:
   every event acknowledged, every work frame triggered, no errors. *)
let test_loadgen_binary_pipelined () =
  with_server
    ~config:
      {
        Server.default_config with
        boot_script = Some tick_boot_script;
        engines = 2;
      }
  @@ fun srv ->
  let lg =
    match
      Loadgen.create
        {
          Loadgen.default_config with
          Loadgen.port = Server.port srv;
          conns = 4;
          lines = 64;
          commit_every = 16;
          binary = true;
          pipeline = 16;
          batch = 4;
        }
    with
    | Ok lg -> lg
    | Error msg -> Alcotest.fail msg
  in
  let rec drive n =
    if Loadgen.finished lg then ()
    else if n = 0 then Alcotest.fail "binary loadgen did not finish"
    else begin
      ignore (Server.poll srv ~timeout:0.001);
      Loadgen.poll lg ~timeout:0.001;
      drive (n - 1)
    end
  in
  drive 100_000;
  let r = Loadgen.report lg in
  Alcotest.(check int) "no protocol errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "every event acknowledged" (4 * 64) r.Loadgen.lines_ok;
  Alcotest.(check bool) "work frames triggered" true (r.Loadgen.triggered > 0);
  Alcotest.(check int) "commits" (4 * 4) r.Loadgen.commits

(* The window the greeting advertises holds on worker domains too: with
   [max_pending] jobs in flight the session reports [blocked] — the
   reactor's cue to stop reading it — rather than admitting frames
   without bound.  Every 7th frame names an etype id never announced, so
   the reply stream has a shape that shows its order. *)
let test_manager_window_bound () =
  let window = 64 in
  let mgr =
    match
      Session.Manager.create ~engines:1 ~domains:1 ~boot_script:tick_boot_script
        ~max_pending:window ()
    with
    | Ok mgr -> mgr
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Session.Manager.shutdown mgr) @@ fun () ->
  let sid = Session.Manager.open_session mgr in
  let replies = Queue.create () in
  let collect =
    List.iter (function
      | Session.Manager.Reply (s, r) when s = sid -> Queue.add r replies
      | _ -> ())
  in
  let await n =
    let fd = Option.get (Session.Manager.wakeup_fd mgr) in
    let rec go tries =
      if Queue.length replies < n then
        if tries = 0 then
          Alcotest.failf "%d of %d replies" (Queue.length replies) n
        else begin
          ignore (Unix.select [ fd ] [] [] 0.01);
          collect (Session.Manager.pump mgr);
          go (tries - 1)
        end
    in
    go 1000
  in
  collect (feed mgr sid (Protocol.Hello Protocol.version));
  collect (feed mgr sid (Protocol.Etype { id = 0; name = "tick" }));
  await 2;
  Queue.clear replies;
  let frame i =
    Protocol.encode_event
      ~etype_id:(if i mod 7 = 0 then 9 else 0)
      ~oid:i ~timestamp:0
  in
  let sent = ref 0 in
  while (not (Session.Manager.blocked mgr sid)) && !sent <= window do
    incr sent;
    collect (Session.Manager.on_binary mgr sid (frame !sent))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "blocked by frame %d" (window + 1))
    true
    (Session.Manager.blocked mgr sid);
  await !sent;
  List.iteri
    (fun k reply ->
      let i = k + 1 in
      match reply with
      | Protocol.Err ("proto", _) when i mod 7 = 0 -> ()
      | Protocol.Triggered [ "onTick" ] when i mod 7 <> 0 -> ()
      | r ->
          Alcotest.failf "frame %d answered out of order: %s" i
            (Protocol.reply_to_payload r))
    (List.of_seq (Queue.to_seq replies));
  Alcotest.(check bool) "pumping released the session" false
    (Session.Manager.blocked mgr sid);
  Queue.clear replies;
  collect (feed mgr sid Protocol.Commit);
  await 1;
  match Queue.pop replies with
  | Protocol.Ok_ _ -> ()
  | r -> Alcotest.failf "commit: %s" (Protocol.reply_to_payload r)

(* select(2) cannot watch a descriptor numbered FD_SETSIZE (1024) or
   above.  Admission must refuse such a connection with ERR busy instead
   of letting the next select raise out of the reactor; connections
   admitted earlier keep being served.  The test pushes its own next
   descriptor past the limit by dup'ing /dev/null. *)
let test_socket_unselectable_fd_refused () =
  with_boot_server @@ fun srv ->
  let c1 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c1) @@ fun () ->
  hello srv c1;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fillers = ref [ devnull ] in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !fillers)
  @@ fun () ->
  (* A Unix descriptor is its number; dup returns the lowest free one,
     so once it returns 1023 every later descriptor is >= 1024. *)
  let number (fd : Unix.file_descr) : int = Obj.magic fd in
  let rec fill () =
    match Unix.dup devnull with
    | fd ->
        fillers := fd :: !fillers;
        if number fd < 1023 then fill ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        Alcotest.skip ()
  in
  if number devnull < 1023 then fill ();
  let c2 = connect srv in
  Fun.protect ~finally:(fun () -> close_client c2) @@ fun () ->
  ignore (expect_err srv c2 "busy" "descriptor past select's limit");
  expect_eof srv c2;
  send srv c1 (Protocol.Ping "still");
  Alcotest.(check string) "the admitted connection lives" "pong still"
    (expect_ok srv c1 "ping")

(* ---------------------- pipelined binary differential (reply ordering) *)

(* The pipelining differential: 160 seeded scenarios, each a random mix
   of binary EVENTs, BATCHes, PINGs carrying unique tokens, COMMITs and
   ABORTs — sent as ONE burst, [pipeline]-style, with no reads in
   between.  The replies must arrive strictly in send order and match,
   payload for payload, a reference that drives [Engine.ingest_event]
   directly: the PING tokens prove no reply jumped the queue, the
   TRIGGERED lists prove the events hit the rule engine identically.
   Half the seeds run the worker-domain path, half run inline. *)
type diff_op =
  | D_event
  | D_batch of int
  | D_ping of string
  | D_commit
  | D_abort

let diff_scenario rng n =
  let ops = ref [] and open_events = ref 0 in
  for i = 0 to n - 1 do
    let op =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 -> D_event
      | 4 | 5 -> D_batch (1 + Random.State.int rng 4)
      | 6 | 7 -> D_ping (Printf.sprintf "tok-%d" i)
      | 8 when !open_events > 0 -> D_commit
      | 9 when !open_events > 0 -> D_abort
      | _ -> D_event
    in
    (match op with
    | D_event -> incr open_events
    | D_batch k -> open_events := !open_events + k
    | D_commit | D_abort -> open_events := 0
    | D_ping _ -> ());
    ops := op :: !ops
  done;
  (List.rev !ops, !open_events > 0)

(* The direct-drive reference: the same record stream through
   [Engine.ingest_event] on a fresh engine, replies synthesized per the
   documented semantics. *)
let diff_reference ops =
  let interp = Interp.create () in
  (match Interp.run_string interp tick_boot_script with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Engine.commit (Interp.engine interp) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reference boot commit");
  let engine = Interp.engine interp in
  let executed = ref [] in
  Engine.set_on_execution engine (fun name -> executed := name :: !executed);
  let etype =
    match Event_type.of_string "tick" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let oid = ref 0 in
  let ingest () =
    let this = !oid in
    incr oid;
    Engine.ingest_event engine ~etype ~oid:(Ident.Oid.of_int this)
  in
  let executed_reply () =
    match List.rev !executed with
    | [] -> Protocol.Ok_ ""
    | rules -> Protocol.Triggered rules
  in
  List.map
    (fun op ->
      executed := [];
      match op with
      | D_ping tok -> Protocol.Ok_ ("pong " ^ tok)
      | D_event -> (
          match ingest () with
          | Ok () -> executed_reply ()
          | Error e -> Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e))
      | D_batch k ->
          let rec apply i =
            if i = k then executed_reply ()
            else
              match ingest () with
              | Ok () -> apply (i + 1)
              | Error e ->
                  Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)
          in
          apply 0
      | D_commit -> (
          match Engine.commit engine with
          | Ok () -> executed_reply ()
          | Error e ->
              Engine.abort engine;
              Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e))
      | D_abort ->
          Engine.abort engine;
          Protocol.Ok_ "aborted")
    ops

let run_diff_seed ~domains seed =
  let ops, tx_open = diff_scenario (Random.State.make [| seed |]) 30 in
  let expected = diff_reference ops in
  with_server
    ~config:
      {
        Server.default_config with
        boot_script = Some tick_boot_script;
        engines = 1;
        domains;
      }
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  send srv c (Protocol.Etype { id = 0; name = "tick" });
  ignore (expect_ok srv c "etype");
  (* The whole scenario in one burst: no reads until everything is sent. *)
  let burst = Buffer.create 1024 in
  let oid = ref 0 in
  let next_oid () =
    let this = !oid in
    incr oid;
    this
  in
  List.iter
    (fun op ->
      let payload =
        match op with
        | D_ping tok -> Protocol.command_to_payload (Protocol.Ping tok)
        | D_event ->
            Protocol.encode_event ~etype_id:0 ~oid:(next_oid ()) ~timestamp:0
        | D_batch k ->
            Protocol.encode_batch
              (List.init k (fun _ ->
                   { Protocol.etype_id = 0; oid = next_oid (); timestamp = 0 }))
        | D_commit -> Protocol.command_to_payload Protocol.Commit
        | D_abort -> Protocol.command_to_payload Protocol.Abort
      in
      Buffer.add_string burst (Protocol.frame_exn ~max_frame:mf payload))
    ops;
  send_raw srv c (Buffer.contents burst);
  (* Replies come back strictly in send order. *)
  List.iteri
    (fun i want ->
      match recv srv c with
      | `Reply got ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d step %d" seed i)
            (Protocol.reply_to_payload want)
            (Protocol.reply_to_payload got)
      | `Eof -> Alcotest.failf "seed %d step %d: connection closed" seed i
      | `Timeout -> Alcotest.failf "seed %d step %d: no reply" seed i)
    expected;
  if tx_open then begin
    send srv c Protocol.Abort;
    ignore (expect_ok srv c "final abort")
  end;
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit");
  expect_eof srv c

let test_differential_binary_pipelined () =
  for seed = 0 to 159 do
    (* Even seeds inline on the reactor, odd seeds through a worker
       domain: the reply-order invariant holds on both execution paths. *)
    run_diff_seed ~domains:(if seed mod 2 = 0 then Some 0 else None) seed
  done

(* --------------------------------------------------- live subscriptions *)

let sub_spec_text = "ON { tick } DO at({ tick }, X, T)"

let test_notify_payload_roundtrip () =
  let n =
    {
      Protocol.sub = 3;
      at = 17;
      bindings = [ [ ("X", "o1"); ("T", "5") ]; [ ("X", "o2"); ("T", "9") ] ];
    }
  in
  List.iter
    (fun binary ->
      let payload = Protocol.notify_to_payload ~binary n in
      Alcotest.(check bool) "notify classified" true
        (Protocol.is_notify_payload payload);
      (match Protocol.notify_of_payload payload with
      | Ok (`Notify n') ->
          Alcotest.(check bool) "notify round trip" true (n = n')
      | Ok (`Gap _) -> Alcotest.fail "notify decoded as a gap"
      | Error msg -> Alcotest.fail msg);
      let gap = Protocol.notify_gap_to_payload ~binary ~sub:9 ~dropped:42 in
      Alcotest.(check bool) "gap classified" true
        (Protocol.is_notify_payload gap);
      match Protocol.notify_of_payload gap with
      | Ok (`Gap (9, 42)) -> ()
      | Ok _ -> Alcotest.fail "gap decoded wrong"
      | Error msg -> Alcotest.fail msg)
    [ false; true ];
  (* Replies and commands are never classified as pushes. *)
  Alcotest.(check bool) "reply is not a push" false
    (Protocol.is_notify_payload (Protocol.reply_to_payload (Protocol.Ok_ "x")));
  Alcotest.(check bool) "command is not a push" false
    (Protocol.is_notify_payload (Protocol.command_to_payload Protocol.Quit))

(* Like [recv], but total over subscription pushes: each frame is
   classified with [is_notify_payload] before reply parsing — exactly
   what a real subscriber with commands in flight must do. *)
let recv_any ?(polls = 400) srv c =
  let take () =
    match Protocol.decode ~max_frame:mf c.buf ~off:0 ~len:c.len with
    | Protocol.Frame (payload, used) ->
        Bytes.blit c.buf used c.buf 0 (c.len - used);
        c.len <- c.len - used;
        if Protocol.is_notify_payload payload then (
          match Protocol.notify_of_payload payload with
          | Ok (`Notify n) -> Some (`Notify (n, payload.[0] < '\x20'))
          | Ok (`Gap (sub, dropped)) -> Some (`Gap (sub, dropped))
          | Error msg -> Alcotest.failf "unparsable notify %S: %s" payload msg)
        else (
          match Protocol.reply_of_payload payload with
          | Ok r -> Some (`Reply r)
          | Error msg -> Alcotest.failf "unparsable reply %S: %s" payload msg)
    | _ -> None
  in
  let rec go polls =
    match take () with
    | Some x -> x
    | None ->
        if polls <= 0 then `Timeout
        else begin
          ignore (Server.poll srv ~timeout:0.005);
          match client_read c with
          | `Eof -> ( match take () with Some x -> x | None -> `Eof)
          | `Read | `Nothing -> go (polls - 1)
        end
  in
  go polls

let expect_notify srv c what =
  match recv_any srv c with
  | `Notify (n, binary) -> (n, binary)
  | `Gap _ -> Alcotest.failf "%s: expected NOTIFY, got NOTIFY_GAP" what
  | `Reply r ->
      Alcotest.failf "%s: expected NOTIFY, got %s" what
        (Protocol.reply_to_payload r)
  | `Eof | `Timeout -> Alcotest.failf "%s: no NOTIFY" what

(* The full life of one subscription over a socket: HELLO advertises the
   feature, SUB registers, a committed trigger pushes NOTIFY before the
   commit reply, an abort pushes nothing, UNSUB tears down. *)
let test_sub_basic () =
  with_server ~config:{ Server.default_config with engines = 1 } @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  send srv c (Protocol.Hello Protocol.version);
  let info = expect_ok srv c "hello" in
  Alcotest.(check bool) "greeting advertises sub" true (contains_sub info "sub");
  send srv c (Protocol.Sub { id = 0; binary = false; spec = sub_spec_text });
  Alcotest.(check string) "sub ok" "" (expect_ok srv c "sub");
  Alcotest.(check int) "gauge sees it" 1
    (Session.Manager.subscription_count (Server.manager srv));
  (* A committed trigger: the rule executes (and is reported TRIGGERED
     like any other), then the commit point pushes the notify — in
     stream position before the commit's own reply. *)
  send srv c (Protocol.Event { etype = "tick"; oid = 7 });
  (match expect_triggered srv c "event" with
  | [ rule ] ->
      Alcotest.(check bool) "subscription rule namespace" true
        (String.length rule > 4 && String.sub rule 0 4 = "sub.")
  | rules -> Alcotest.failf "expected one rule, got %d" (List.length rules));
  send srv c Protocol.Commit;
  let n, binary = expect_notify srv c "commit notify" in
  Alcotest.(check bool) "text encoding" false binary;
  Alcotest.(check int) "sub id" 0 n.Protocol.sub;
  (match n.Protocol.bindings with
  | [ env ] ->
      Alcotest.(check (option string)) "X binds the oid" (Some "o7")
        (List.assoc_opt "X" env);
      Alcotest.(check bool) "T binds an instant" true
        (match List.assoc_opt "T" env with
        | Some t -> int_of_string_opt t <> None
        | None -> false)
  | envs -> Alcotest.failf "expected one env, got %d" (List.length envs));
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | _ -> Alcotest.fail "commit reply after the notify");
  (* An aborted transaction pushes nothing: the next frame after the
     abort's reply is the ping echo, not a phantom notify. *)
  send srv c (Protocol.Event { etype = "tick"; oid = 8 });
  ignore (expect_triggered srv c "aborted event");
  send srv c Protocol.Abort;
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ "aborted") -> ()
  | _ -> Alcotest.fail "abort reply");
  send srv c (Protocol.Ping "seal");
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ "pong seal") -> ()
  | `Notify _ -> Alcotest.fail "phantom notify after abort"
  | _ -> Alcotest.fail "ping echo");
  (* UNSUB: the rule leaves the engine — no TRIGGERED, no notify. *)
  send srv c (Protocol.Unsub { id = 0 });
  ignore (expect_ok srv c "unsub");
  Alcotest.(check int) "gauge back to zero" 0
    (Session.Manager.subscription_count (Server.manager srv));
  send srv c (Protocol.Event { etype = "tick"; oid = 9 });
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | `Reply (Protocol.Triggered _) -> Alcotest.fail "unsubscribed rule fired"
  | _ -> Alcotest.fail "event after unsub");
  send srv c Protocol.Commit;
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | `Notify _ -> Alcotest.fail "notify after unsub"
  | _ -> Alcotest.fail "commit after unsub");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

(* SUB ... BIN negotiates the binary NOTIFY encoding per subscription. *)
let test_sub_binary_encoding () =
  with_server ~config:{ Server.default_config with engines = 1 } @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  send srv c (Protocol.Sub { id = 3; binary = true; spec = sub_spec_text });
  ignore (expect_ok srv c "sub bin");
  send srv c (Protocol.Event { etype = "tick"; oid = 11 });
  ignore (expect_triggered srv c "event");
  send srv c Protocol.Commit;
  let n, binary = expect_notify srv c "binary notify" in
  Alcotest.(check bool) "binary encoding" true binary;
  Alcotest.(check int) "sub id" 3 n.Protocol.sub;
  (match n.Protocol.bindings with
  | [ env ] ->
      Alcotest.(check (option string)) "X binding" (Some "o11")
        (List.assoc_opt "X" env)
  | envs -> Alcotest.failf "expected one env, got %d" (List.length envs));
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | _ -> Alcotest.fail "commit reply");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

(* Every refusal the SUB/UNSUB state machine owes: parse errors, the id
   range, duplicate registration, transaction-boundary enforcement, and
   — the regression this suite pins — a second UNSUB of the same id is a
   clean [ERR state], never a crash or a hang. *)
let test_sub_errors () =
  with_boot_server @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  ignore
    (send srv c (Protocol.Sub { id = 0; binary = false; spec = "garbage" });
     expect_err srv c "parse" "spec without ON");
  ignore
    (send srv c (Protocol.Sub { id = 0; binary = false; spec = "ON { tick" });
     expect_err srv c "parse" "unterminated event expr");
  ignore
    (send srv c (Protocol.Sub { id = 0; binary = false; spec = "ON { tick } DO" });
     expect_err srv c "parse" "empty DO");
  ignore
    (send srv c (Protocol.Sub { id = 0; binary = false; spec = "ON { tick } X" });
     expect_err srv c "parse" "trailing input");
  (* Out-of-range ids are protocol errors, raw on the wire because the
     typed constructor cannot express them. *)
  send_raw srv c (Protocol.frame_exn ~max_frame:mf "SUB 70000 ON { tick }");
  ignore (expect_err srv c "proto" "sub id over the cap");
  send_raw srv c (Protocol.frame_exn ~max_frame:mf "UNSUB -1");
  ignore (expect_err srv c "proto" "negative unsub id");
  (* Duplicate registration. *)
  send srv c (Protocol.Sub { id = 1; binary = false; spec = "ON { tick }" });
  ignore (expect_ok srv c "sub 1");
  send srv c (Protocol.Sub { id = 1; binary = false; spec = "ON { tick }" });
  ignore (expect_err srv c "state" "duplicate sub id");
  (* Subscription changes only at a transaction boundary. *)
  send srv c (Protocol.Line "create item(n = 1)");
  ignore (expect_triggered srv c "open a transaction");
  send srv c (Protocol.Sub { id = 2; binary = false; spec = "ON { tick }" });
  ignore (expect_err srv c "state" "SUB inside a transaction");
  send srv c (Protocol.Unsub { id = 1 });
  ignore (expect_err srv c "state" "UNSUB inside a transaction");
  send srv c Protocol.Abort;
  ignore (expect_ok srv c "abort");
  (* The double-UNSUB regression: the second is [ERR state], the
     connection lives on. *)
  send srv c (Protocol.Unsub { id = 1 });
  ignore (expect_ok srv c "unsub");
  send srv c (Protocol.Unsub { id = 1 });
  ignore (expect_err srv c "state" "double unsub");
  send srv c (Protocol.Unsub { id = 42 });
  ignore (expect_err srv c "state" "never-registered unsub");
  send srv c (Protocol.Ping "alive");
  Alcotest.(check string) "connection survived" "pong alive"
    (expect_ok srv c "ping");
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit")

(* The slow-consumer policy, deterministically: [notify_queue = 2] and
   [high_water = 0] (any pending output parks further pushes in the
   bounded queue), then five commits land in one reactor turn.  The
   first notify goes straight out; of the four parked, the two oldest
   are shed; the subscriber's stream is NOTIFY, NOTIFY_GAP(2) in the
   shed position, then the two survivors — delivered + dropped accounts
   for every commit. *)
let test_sub_overflow_gap () =
  with_server
    ~config:
      {
        Server.default_config with
        engines = 1;
        domains = Some 0 (* inline: the burst lands in one turn *);
        notify_queue = 2;
        high_water = 0;
      }
  @@ fun srv ->
  let s = connect srv in
  let i = connect srv in
  Fun.protect
    ~finally:(fun () ->
      close_client s;
      close_client i)
  @@ fun () ->
  hello srv s;
  send srv s (Protocol.Sub { id = 0; binary = false; spec = sub_spec_text });
  ignore (expect_ok srv s "sub");
  hello srv i;
  (* Five commit cycles in one burst: the server reads them in one
     turn, so the subscriber's output pauses after the first push. *)
  let burst = Buffer.create 256 in
  for oid = 0 to 4 do
    Buffer.add_string burst
      (Protocol.frame_exn ~max_frame:mf
         (Protocol.command_to_payload (Protocol.Event { etype = "tick"; oid })));
    Buffer.add_string burst
      (Protocol.frame_exn ~max_frame:mf
         (Protocol.command_to_payload Protocol.Commit))
  done;
  send_raw srv i (Buffer.contents burst);
  for k = 0 to 4 do
    ignore (expect_triggered srv i (Printf.sprintf "event %d" k));
    ignore (expect_ok srv i (Printf.sprintf "commit %d" k))
  done;
  (* A ping seals the stream: its echo force-drains everything owed. *)
  send srv s (Protocol.Ping "seal");
  let rec collect acc =
    match recv_any srv s with
    | `Reply (Protocol.Ok_ "pong seal") -> List.rev acc
    | `Reply r ->
        Alcotest.failf "unexpected reply %s" (Protocol.reply_to_payload r)
    | `Notify (n, _) -> collect (`N n :: acc)
    | `Gap (sub, dropped) -> collect (`G (sub, dropped) :: acc)
    | `Eof | `Timeout -> Alcotest.fail "stream ended before the seal"
  in
  let stream = collect [] in
  let xs = function
    | `N n -> (
        match n.Protocol.bindings with
        | [ env ] -> ( match List.assoc_opt "X" env with Some x -> x | None -> "?")
        | _ -> "?")
    | `G _ -> "gap"
  in
  Alcotest.(check (list string))
    "drop-oldest stream: first out, gap in shed position, survivors"
    [ "o0"; "gap"; "o3"; "o4" ]
    (List.map xs stream);
  (match List.nth stream 1 with
  | `G (0, 2) -> ()
  | `G (sub, dropped) ->
      Alcotest.failf "gap accounts sub %d dropped %d, want sub 0 dropped 2" sub
        dropped
  | `N _ -> Alcotest.fail "expected the gap frame second");
  let delivered =
    List.length (List.filter (function `N _ -> true | `G _ -> false) stream)
  in
  let dropped =
    List.fold_left
      (fun acc -> function `G (_, d) -> acc + d | `N _ -> acc)
      0 stream
  in
  Alcotest.(check int) "every commit delivered or gapped" 5
    (delivered + dropped);
  (* The STATS text reports the subsystem's counters. *)
  send srv s Protocol.Stats;
  let stats = expect_ok srv s "stats" in
  Alcotest.(check bool) "stats carries the subs line" true
    (contains_sub stats "subs:")

(* An abruptly vanished subscriber leaves nothing behind: the registry
   empties immediately and the dynamic rule leaves the engine, so later
   commits neither fire it nor notify anyone. *)
let test_sub_disconnect_residue () =
  with_server ~config:{ Server.default_config with engines = 1 } @@ fun srv ->
  let s = connect srv in
  hello srv s;
  send srv s (Protocol.Sub { id = 0; binary = false; spec = sub_spec_text });
  ignore (expect_ok srv s "sub");
  Alcotest.(check int) "one live subscription" 1
    (Session.Manager.subscription_count (Server.manager srv));
  close_client s;
  let rec settle n =
    if n = 0 then Alcotest.fail "disconnect never noticed"
    else if
      Session.Manager.subscription_count (Server.manager srv) > 0
      || Server.active_conns srv > 0
    then begin
      ignore (Server.poll srv ~timeout:0.005);
      settle (n - 1)
    end
  in
  settle 1000;
  let i = connect srv in
  Fun.protect ~finally:(fun () -> close_client i) @@ fun () ->
  hello srv i;
  send srv i (Protocol.Event { etype = "tick"; oid = 1 });
  (match recv_any srv i with
  | `Reply (Protocol.Ok_ _) -> ()
  | `Reply (Protocol.Triggered rules) ->
      Alcotest.failf "dead subscriber's rule still fires: %s"
        (String.concat "," rules)
  | _ -> Alcotest.fail "event reply");
  send srv i Protocol.Commit;
  (match recv_any srv i with
  | `Reply (Protocol.Ok_ _) -> ()
  | `Notify _ -> Alcotest.fail "notify to a dead subscriber"
  | _ -> Alcotest.fail "commit reply");
  send srv i Protocol.Quit;
  ignore (expect_ok srv i "quit")

(* The loadgen's push side, in process: ingesters and subscribers drive
   one server in this thread.  Every committed event is one activation
   fanned out to every subscriber, and the delivery guarantee makes the
   accounting exact: delivered + shed = events x subscribers. *)
let test_loadgen_subscribe () =
  with_server ~config:{ Server.default_config with engines = 1 } @@ fun srv ->
  let conns = 4 and lines = 20 and subscribers = 2 in
  let lg =
    match
      Loadgen.create
        {
          Loadgen.default_config with
          Loadgen.port = Server.port srv;
          conns;
          lines;
          commit_every = 5;
          binary = true;
          subscribe = subscribers;
        }
    with
    | Ok lg -> lg
    | Error msg -> Alcotest.fail msg
  in
  let rec drive n =
    if Loadgen.finished lg then ()
    else if n = 0 then Alcotest.fail "subscription loadgen did not finish"
    else begin
      ignore (Server.poll srv ~timeout:0.001);
      Loadgen.poll lg ~timeout:0.001;
      drive (n - 1)
    end
  in
  drive 100_000;
  let r = Loadgen.report lg in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "every event answered" (conns * lines) r.Loadgen.lines_ok;
  Alcotest.(check int) "subscribers reported" subscribers r.Loadgen.subscribers;
  Alcotest.(check int) "every activation delivered or gapped"
    (conns * lines * subscribers)
    (r.Loadgen.notifies + r.Loadgen.gap_dropped);
  Alcotest.(check bool) "latency samples are real" true (r.Loadgen.nlat_max_ns > 0);
  (* Nothing held the registry open. *)
  Alcotest.(check int) "registry empty after the run" 0
    (Session.Manager.subscription_count (Server.manager srv))

(* The notify-stream differential: the socket subscriber's NOTIFY
   sequence must equal the committed activation log of the same rule
   driven directly through the engine — same activation instants, same
   bindings, same order — across commits, aborts and batches, inline
   and through a worker domain. *)
let sub_diff_reference ops =
  let interp = Interp.create () in
  let engine = Interp.engine interp in
  let spec =
    match Lang_parser.parse_subscription sub_spec_text with
    | Error msg -> Alcotest.fail msg
    | Ok (event, condition) ->
        {
          Rule.name = "ref";
          target = None;
          event;
          condition;
          action = [];
          coupling = Rule.Immediate;
          consumption = Rule.Consuming;
          priority = 0;
        }
  in
  (match Engine.define_dynamic engine spec with
  | Ok _ -> ()
  | Error (`Rule_error msg) -> Alcotest.fail msg);
  Engine.watch_rule engine "ref";
  let etype =
    match Event_type.of_string "tick" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let oid = ref 0 in
  let ingest () =
    let this = !oid in
    incr oid;
    match Engine.ingest_event engine ~etype ~oid:(Ident.Oid.of_int this) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reference ingest: %a" Engine.pp_error e
  in
  let acc = ref [] in
  let drain () =
    List.iter
      (fun (a : Engine.activation) ->
        acc := (Time.to_int a.act_at, a.act_bindings) :: !acc)
      (Engine.drain_activations engine)
  in
  List.iter
    (fun op ->
      match op with
      | D_ping _ -> ()
      | D_event -> ingest ()
      | D_batch k -> for _ = 1 to k do ingest () done
      | D_commit ->
          (match Engine.commit engine with
          | Ok () -> ()
          | Error _ -> Engine.abort engine);
          drain ()
      | D_abort -> Engine.abort engine)
    ops;
  List.rev !acc

let run_sub_diff_seed ~domains seed =
  let ops, tx_open = diff_scenario (Random.State.make [| 4096 + seed |]) 30 in
  let expected = sub_diff_reference ops in
  let binary = seed mod 4 < 2 in
  with_server
    ~config:{ Server.default_config with engines = 1; domains }
  @@ fun srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  hello srv c;
  send srv c (Protocol.Etype { id = 0; name = "tick" });
  ignore (expect_ok srv c "etype");
  send srv c (Protocol.Sub { id = 5; binary; spec = sub_spec_text });
  ignore (expect_ok srv c "sub");
  let burst = Buffer.create 1024 in
  let oid = ref 0 in
  let next_oid () =
    let this = !oid in
    incr oid;
    this
  in
  List.iter
    (fun op ->
      let payload =
        match op with
        | D_ping tok -> Protocol.command_to_payload (Protocol.Ping tok)
        | D_event ->
            Protocol.encode_event ~etype_id:0 ~oid:(next_oid ()) ~timestamp:0
        | D_batch k ->
            Protocol.encode_batch
              (List.init k (fun _ ->
                   { Protocol.etype_id = 0; oid = next_oid (); timestamp = 0 }))
        | D_commit -> Protocol.command_to_payload Protocol.Commit
        | D_abort -> Protocol.command_to_payload Protocol.Abort
      in
      Buffer.add_string burst (Protocol.frame_exn ~max_frame:mf payload))
    ops;
  send_raw srv c (Buffer.contents burst);
  (* Every op gets exactly one reply; notifies interleave ahead of the
     commit replies that produced them. *)
  let notifies = ref [] and replies = ref 0 in
  let want_replies = List.length ops in
  while !replies < want_replies do
    match recv_any srv c with
    | `Reply _ -> incr replies
    | `Notify (n, got_binary) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: negotiated encoding" seed)
          binary got_binary;
        Alcotest.(check int) (Printf.sprintf "seed %d: sub id" seed) 5
          n.Protocol.sub;
        notifies := (n.Protocol.at, n.Protocol.bindings) :: !notifies
    | `Gap _ -> Alcotest.failf "seed %d: unexpected gap" seed
    | `Eof -> Alcotest.failf "seed %d: connection closed" seed
    | `Timeout -> Alcotest.failf "seed %d: reply stream stalled" seed
  done;
  if tx_open then begin
    send srv c Protocol.Abort;
    match recv_any srv c with
    | `Reply (Protocol.Ok_ "aborted") -> ()
    | `Notify _ -> Alcotest.failf "seed %d: notify from the final abort" seed
    | _ -> Alcotest.failf "seed %d: final abort reply" seed
  end;
  send srv c (Protocol.Unsub { id = 5 });
  (match recv_any srv c with
  | `Reply (Protocol.Ok_ _) -> ()
  | `Notify _ -> Alcotest.failf "seed %d: notify after the reply drain" seed
  | _ -> Alcotest.failf "seed %d: unsub reply" seed);
  send srv c Protocol.Quit;
  ignore (expect_ok srv c "quit");
  expect_eof srv c;
  let got = List.rev !notifies in
  let render l =
    String.concat ";"
      (List.map
         (fun (at, envs) ->
           Printf.sprintf "%d:%s" at
             (String.concat "|"
                (List.map
                   (fun env ->
                     String.concat ","
                       (List.map (fun (v, x) -> v ^ "=" ^ x) env))
                   envs)))
         l)
  in
  Alcotest.(check string)
    (Printf.sprintf "seed %d: notify stream equals the activation log" seed)
    (render expected) (render got)

let test_sub_notify_differential () =
  for seed = 0 to 159 do
    run_sub_diff_seed ~domains:(if seed mod 2 = 0 then Some 0 else None) seed
  done


(* A checkpoint cadence without a journal has nothing to checkpoint: the
   server refuses it before binding, as [chimera run] does, instead of
   serving without the bounded state the flag asked for. *)
let test_checkpoint_needs_journal flag config () =
  match Server.create { config with Server.port = 0 } with
  | Ok srv ->
      stop_server srv;
      Alcotest.failf "%s without --journal was accepted" flag
  | Error msg ->
      Alcotest.(check string)
        "names the flag" (flag ^ " requires --journal") msg

let suite =
  [
    Alcotest.test_case "payload round trip" `Quick test_payload_roundtrip;
    Alcotest.test_case "frame decoding is total" `Quick test_decode_frames;
    Alcotest.test_case "event codec rejects bad numbers" `Quick
      test_event_codec_rejects_bad_numbers;
    Alcotest.test_case "binary frames round trip (1000 cases)" `Quick
      test_binary_roundtrip;
    Alcotest.test_case "binary decode is total (1000 payloads)" `Quick
      test_binary_decode_totality;
    Alcotest.test_case "manager queueing and overflow" `Quick
      test_manager_queueing_and_overflow;
    Alcotest.test_case "hello key re-pins the session" `Quick
      test_manager_hello_key_repin;
    Alcotest.test_case "socket round trip" `Quick test_socket_roundtrip;
    Alcotest.test_case "protocol errors keep the connection" `Quick
      test_socket_protocol_errors;
    Alcotest.test_case "oversized frame closes" `Quick
      test_socket_oversized_frame_closes;
    Alcotest.test_case "torn frame completes" `Quick test_socket_torn_frame;
    Alcotest.test_case "wrong version closes" `Quick
      test_socket_wrong_version_closes;
    Alcotest.test_case "shard transactions serialize FIFO" `Quick
      test_socket_shard_fifo;
    Alcotest.test_case "backpressure on a slow reader" `Quick
      test_socket_backpressure_slow_reader;
    Alcotest.test_case "idle timeout" `Quick test_socket_idle_timeout;
    Alcotest.test_case "admission cap rejects" `Quick
      test_socket_max_conns_rejects;
    Alcotest.test_case "graceful drain, journals replay" `Quick
      test_socket_drain_and_recover;
    Alcotest.test_case "keyed sessions across worker domains" `Quick
      test_socket_multidomain;
    Alcotest.test_case "in-process loadgen" `Quick test_loadgen_in_process;
    Alcotest.test_case "differential: socket vs direct" `Quick
      test_differential_socket_vs_direct;
    Alcotest.test_case "binary ingestion over a socket" `Quick
      test_socket_binary_ingest;
    Alcotest.test_case "binary protocol errors keep the connection" `Quick
      test_socket_binary_errors;
    Alcotest.test_case "pipelined binary loadgen" `Quick
      test_loadgen_binary_pipelined;
    Alcotest.test_case "window bounds jobs in flight" `Quick
      test_manager_window_bound;
    Alcotest.test_case "descriptor past select's limit is refused" `Quick
      test_socket_unselectable_fd_refused;
    Alcotest.test_case "differential: pipelined binary, 160 seeds" `Quick
      test_differential_binary_pipelined;
    Alcotest.test_case "notify payloads round trip" `Quick
      test_notify_payload_roundtrip;
    Alcotest.test_case "subscription lifecycle over a socket" `Quick
      test_sub_basic;
    Alcotest.test_case "binary notify encoding" `Quick
      test_sub_binary_encoding;
    Alcotest.test_case "subscription errors and double UNSUB" `Quick
      test_sub_errors;
    Alcotest.test_case "notify overflow sheds into a gap" `Quick
      test_sub_overflow_gap;
    Alcotest.test_case "disconnect leaves no subscription residue" `Quick
      test_sub_disconnect_residue;
    Alcotest.test_case "loadgen subscribers count every push" `Quick
      test_loadgen_subscribe;
    Alcotest.test_case "differential: notify stream, 160 seeds" `Quick
      test_sub_notify_differential;
    Alcotest.test_case "--checkpoint-every without --journal is refused"
      `Quick
      (test_checkpoint_needs_journal "--checkpoint-every"
         { Server.default_config with Server.checkpoint_every = Some 5 });
    Alcotest.test_case "--checkpoint-interval without --journal is refused"
      `Quick
      (test_checkpoint_needs_journal "--checkpoint-interval"
         { Server.default_config with Server.checkpoint_interval = Some 1.0 });
  ]
