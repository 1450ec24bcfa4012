(* The wire protocol: length-prefixed frames carrying one text command or
   reply each.

   Framing is the only binary part — a 4-byte big-endian unsigned length
   prefix — and everything inside a frame is text, so a session capture
   is human-readable and the LINE payloads are the ordinary rule-language
   script text the rest of the system already parses.  The decoder is a
   total function over byte ranges: torn input is [Need_more], a
   zero-length prefix is a frame-local [Reject] (the stream is still
   framed: skip 4 bytes and continue), and a length prefix that
   overflows the cap is [Corrupt] — after it nothing downstream can be
   trusted, so the server replies ERR best-effort and closes. *)

open Chimera_event

let version = "chimera/1"
let features = [ "tx"; "stats"; "drain"; "keys"; "repl"; "bin"; "pipe"; "sub" ]
let default_max_frame = 64 * 1024
let header_bytes = 4

(* ----------------------------------------------------------- commands *)

type command =
  | Hello of string
  | Line of string
  | Etype of { id : int; name : string }
      (** [ETYPE <id> <name>]: intern an external event-type name under a
          session-local numeric id, for binary frames to reference *)
  | Event of { etype : string; oid : int }
      (** [EVENT <etype> <oid>]: record one external event occurrence
          directly — the text twin of the binary EVENT frame *)
  | Commit
  | Abort
  | Stats
  | Ping of string
  | Quit
  | Repl_hello of string
      (** a follower announcing itself: "<version> <engines>" *)
  | Repl_ack of { shard : int; seq : int }
      (** follower → primary: commit [seq] of [shard] is durably local *)
  | Promote
      (** admin → standby: stop following, start serving *)
  | Sub of { id : int; binary : bool; spec : string }
      (** [SUB <id> [BIN] ON <event-expr> [DO <atoms>]]: register the
          ad-hoc rule [spec] (everything from [ON] on, verbatim — parsed
          by the language front end) under the session-local [id];
          [BIN] asks for binary NOTIFY frames *)
  | Unsub of { id : int }  (** [UNSUB <id>]: drop a subscription *)

(* The verb/argument split: the verb runs to the first space or newline;
   one separator char is dropped and the rest is the argument verbatim
   (LINE payloads keep their internal newlines). *)
let split_verb payload =
  let n = String.length payload in
  let rec scan i =
    if i >= n then (payload, "")
    else
      match payload.[i] with
      | ' ' | '\n' -> (String.sub payload 0 i, String.sub payload (i + 1) (n - i - 1))
      | _ -> scan (i + 1)
  in
  scan 0

(* Etype ids live in the binary record's u32 field but are capped far
   lower: a session's table is an array indexed by id, and the cap keeps
   a hostile ETYPE from allocating 4G slots. *)
let max_etype_id = 0xFFFF

(* Subscription ids share the rationale: session-local, and the cap
   bounds the per-connection registry a hostile client can allocate. *)
let max_sub_id = 0xFFFF

let valid_etype_name name =
  name <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') name)

let command_to_payload = function
  | Hello v -> "HELLO " ^ v
  | Line text -> "LINE " ^ text
  | Etype { id; name } -> Printf.sprintf "ETYPE %d %s" id name
  | Event { etype; oid } -> Printf.sprintf "EVENT %s %d" etype oid
  | Commit -> "COMMIT"
  | Abort -> "ABORT"
  | Stats -> "STATS"
  | Ping "" -> "PING"
  | Ping token -> "PING " ^ token
  | Quit -> "QUIT"
  | Repl_hello v -> "REPL_HELLO " ^ v
  | Repl_ack { shard; seq } -> Printf.sprintf "REPL_ACK %d %d" shard seq
  | Promote -> "PROMOTE"
  | Sub { id; binary; spec } ->
      Printf.sprintf "SUB %d %s%s" id (if binary then "BIN " else "") spec
  | Unsub { id } -> Printf.sprintf "UNSUB %d" id

let command_of_payload payload =
  let verb, arg = split_verb payload in
  match verb with
  | "HELLO" -> Ok (Hello (String.trim arg))
  | "LINE" -> Ok (Line arg)
  | "ETYPE" -> (
      match String.split_on_char ' ' (String.trim arg) with
      | [ id_text; name ] -> (
          match int_of_string_opt id_text with
          | Some id when id >= 0 && id <= max_etype_id ->
              if valid_etype_name name then Ok (Etype { id; name })
              else Error "ETYPE name must be a whitespace-free identifier"
          | Some _ ->
              Error
                (Printf.sprintf "ETYPE id must be in 0..%d" max_etype_id)
          | None -> Error "ETYPE takes <id> <name>")
      | _ -> Error "ETYPE takes <id> <name>")
  | "EVENT" -> (
      match String.split_on_char ' ' (String.trim arg) with
      | [ etype; oid_text ] -> (
          match int_of_string_opt oid_text with
          | Some oid when oid >= 0 ->
              if valid_etype_name etype then Ok (Event { etype; oid })
              else Error "EVENT type must be a whitespace-free identifier"
          | _ -> Error "EVENT takes <etype> <non-negative oid>")
      | _ -> Error "EVENT takes <etype> <oid>")
  | "COMMIT" -> if arg = "" then Ok Commit else Error "COMMIT takes no argument"
  | "ABORT" -> if arg = "" then Ok Abort else Error "ABORT takes no argument"
  | "STATS" -> if arg = "" then Ok Stats else Error "STATS takes no argument"
  | "PING" -> Ok (Ping arg)
  | "QUIT" -> if arg = "" then Ok Quit else Error "QUIT takes no argument"
  | "REPL_HELLO" -> Ok (Repl_hello (String.trim arg))
  | "REPL_ACK" -> (
      match String.split_on_char ' ' (String.trim arg) with
      | [ shard_text; seq_text ] -> (
          match (int_of_string_opt shard_text, int_of_string_opt seq_text) with
          | Some shard, Some seq when shard >= 0 && seq >= 0 ->
              Ok (Repl_ack { shard; seq })
          | _ -> Error "REPL_ACK takes two non-negative integers")
      | _ -> Error "REPL_ACK takes <shard> <seq>")
  | "PROMOTE" -> if arg = "" then Ok Promote else Error "PROMOTE takes no argument"
  | "SUB" -> (
      let usage = "SUB takes <id> [BIN] ON <event-expr> [DO <atoms>]" in
      let id_text, rest = split_verb arg in
      match int_of_string_opt id_text with
      | Some id when id >= 0 && id <= max_sub_id ->
          let binary, spec =
            let tok, after = split_verb rest in
            if String.uppercase_ascii tok = "BIN" then (true, after)
            else (false, rest)
          in
          if String.trim spec = "" then Error usage
          else Ok (Sub { id; binary; spec })
      | Some _ -> Error (Printf.sprintf "SUB id must be in 0..%d" max_sub_id)
      | None -> Error usage)
  | "UNSUB" -> (
      match int_of_string_opt (String.trim arg) with
      | Some id when id >= 0 && id <= max_sub_id -> Ok (Unsub { id })
      | _ -> Error (Printf.sprintf "UNSUB takes an id in 0..%d" max_sub_id))
  | "" -> Error "empty command"
  | other -> Error (Printf.sprintf "unknown verb %S" other)

(* A replication-stream or admin verb the session manager never sees:
   the reactor handles these itself, before ordinary dispatch. *)
let is_repl_payload payload =
  let verb, _ = split_verb payload in
  match verb with
  | "REPL_HELLO" | "REPL_ACK" | "PROMOTE" -> true
  | _ -> false

(* ----------------------------------------------------- binary payloads *)

(* The hot ingestion path rides inside the same 4-byte framing but skips
   text entirely: a tag byte, then fixed-width records owned by
   [Event_codec].  Tag bytes are control characters (< 0x20), which no
   text verb starts with, so classification is one byte deep and needs
   no negotiation state in the decoder. *)

type event_record = { etype_id : int; oid : int; timestamp : int }

let tag_event = '\x01'
let tag_batch = '\x02'
let is_binary_payload payload = payload <> "" && payload.[0] < '\x20'
let record_bytes = Event_codec.binary_record_bytes

let encode_event ~etype_id ~oid ~timestamp =
  let buf = Buffer.create (1 + record_bytes) in
  Buffer.add_char buf tag_event;
  Event_codec.encode_record buf ~etype_id ~oid ~timestamp;
  Buffer.contents buf

let encode_batch records =
  let n = List.length records in
  if n = 0 then invalid_arg "Protocol.encode_batch: empty batch";
  let buf = Buffer.create (5 + (n * record_bytes)) in
  Buffer.add_char buf tag_batch;
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF));
  List.iter
    (fun { etype_id; oid; timestamp } ->
      Event_codec.encode_record buf ~etype_id ~oid ~timestamp)
    records;
  Buffer.contents buf

(* O(1) shape check — tag known, length consistent with the record count
   — for the reactor to run before acquiring a shard (the analogue of
   the text path's parse-before-acquire); the per-record field
   validation happens in [decode_binary] on a worker domain.  Returns
   the record count. *)
let check_binary payload =
  let len = String.length payload in
  if len = 0 then Error "empty binary payload"
  else if payload.[0] = tag_event then
    if len = 1 + record_bytes then Ok 1
    else
      Error
        (Printf.sprintf "EVENT frame must be %d bytes, got %d"
           (1 + record_bytes) len)
  else if payload.[0] = tag_batch then
    if len < 5 then Error "BATCH frame shorter than its count header"
    else
      let b i = Char.code payload.[i] in
      let count = (b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4 in
      if count = 0 then Error "BATCH frame with zero records"
      else if len <> 5 + (count * record_bytes) then
        Error
          (Printf.sprintf "BATCH frame of %d records must be %d bytes, got %d"
             count
             (5 + (count * record_bytes))
             len)
      else Ok count
  else
    Error (Printf.sprintf "unknown binary tag 0x%02x" (Char.code payload.[0]))

(* Total over arbitrary payload bytes: every malformation — unknown tag,
   size/count mismatch, field overflow — is an [Error] string, never an
   exception.  Frame-local by construction: the payload is already
   length-delimited, so a bad binary frame costs one ERR reply, not the
   connection. *)
let decode_binary payload =
  match check_binary payload with
  | Error msg -> Error msg
  | Ok count ->
      let base = if payload.[0] = tag_event then 1 else 5 in
      let rec go i acc =
        if i >= count then Ok (List.rev acc)
        else
          match
            Event_codec.decode_record payload ~off:(base + (i * record_bytes))
          with
          | Ok (etype_id, oid, timestamp) ->
              go (i + 1) ({ etype_id; oid; timestamp } :: acc)
          | Error msg -> Error msg
      in
      go 0 []

(* ------------------------------------------------------------ replies *)

type reply =
  | Ok_ of string
  | Triggered of string list
  | Err of string * string

(* Rule names are identifiers (no whitespace); reject anything else at
   encode time so the space-separated list stays parseable. *)
let valid_rule_name name =
  name <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') name)

let valid_err_code code =
  code <> "" && not (String.exists (fun c -> c = ' ' || c = '\n') code)

let reply_to_payload = function
  | Ok_ "" -> "OK"
  | Ok_ info -> "OK " ^ info
  | Triggered rules ->
      List.iter
        (fun r ->
          if not (valid_rule_name r) then
            invalid_arg (Printf.sprintf "Protocol: unencodable rule name %S" r))
        rules;
      "TRIGGERED " ^ String.concat " " rules
  | Err (code, msg) ->
      if not (valid_err_code code) then
        invalid_arg (Printf.sprintf "Protocol: unencodable error code %S" code);
      (* Replies are one frame each: newlines in engine messages are kept
         (frames are length-delimited), only the code token is constrained. *)
      "ERR " ^ code ^ " " ^ msg

let reply_of_payload payload =
  let verb, arg = split_verb payload in
  match verb with
  | "OK" -> Ok (Ok_ arg)
  | "TRIGGERED" ->
      let rules =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' arg)
      in
      if rules = [] then Error "TRIGGERED without rule names"
      else Ok (Triggered rules)
  | "ERR" -> (
      let code, msg = split_verb arg in
      if code = "" then Error "ERR without a code" else Ok (Err (code, msg)))
  | "" -> Error "empty reply"
  | other -> Error (Printf.sprintf "unknown reply %S" other)

(* -------------------------------------------------- replication pushes *)

(* What a primary streams to an attached follower.  These travel in the
   reply direction of a replication session but are not replies to any
   command — the stream is full-duplex once REPL_HELLO is answered.
   REPL_RECORDS embeds raw journal record lines after the first newline
   of the payload (frames are length-delimited, so the bytes pass
   verbatim); [head_seq] is the primary's current commit sequence for
   the shard, which lets the follower gauge its own lag. *)
type push =
  | Repl_segment of { shard : int; generation : int }
  | Repl_records of { shard : int; head_seq : int; data : string }

let push_to_payload = function
  | Repl_segment { shard; generation } ->
      Printf.sprintf "REPL_SEGMENT %d %d" shard generation
  | Repl_records { shard; head_seq; data } ->
      Printf.sprintf "REPL_RECORDS %d %d\n%s" shard head_seq data

let push_of_payload payload =
  let verb, arg = split_verb payload in
  match verb with
  | "REPL_SEGMENT" -> (
      match String.split_on_char ' ' (String.trim arg) with
      | [ shard_text; gen_text ] -> (
          match (int_of_string_opt shard_text, int_of_string_opt gen_text) with
          | Some shard, Some generation when shard >= 0 && generation > 0 ->
              Ok (Repl_segment { shard; generation })
          | _ -> Error "REPL_SEGMENT takes two positive integers")
      | _ -> Error "REPL_SEGMENT takes <shard> <generation>")
  | "REPL_RECORDS" -> (
      (* The verb line runs to the first newline; everything after it is
         the raw record bytes. *)
      match String.index_opt arg '\n' with
      | None -> Error "REPL_RECORDS without a data block"
      | Some nl -> (
          let head = String.sub arg 0 nl in
          let data = String.sub arg (nl + 1) (String.length arg - nl - 1) in
          match String.split_on_char ' ' (String.trim head) with
          | [ shard_text; seq_text ] -> (
              match
                (int_of_string_opt shard_text, int_of_string_opt seq_text)
              with
              | Some shard, Some head_seq when shard >= 0 && head_seq >= 0 ->
                  Ok (Repl_records { shard; head_seq; data })
              | _ -> Error "REPL_RECORDS takes two non-negative integers")
          | _ -> Error "REPL_RECORDS takes <shard> <head-seq>"))
  | other -> Error (Printf.sprintf "not a replication push: %S" other)

let is_push_payload payload =
  let verb, _ = split_verb payload in
  match verb with "REPL_SEGMENT" | "REPL_RECORDS" -> true | _ -> false

(* --------------------------------------------------- subscription pushes *)

(* What the server pushes to a subscribed session at commit points.
   Like replication pushes these are not replies to any command: they
   interleave with the FIFO reply stream, and a client must classify
   each incoming frame before matching it against its in-flight
   commands.  Both forms carry the same data; the binary form (tags
   0x03/0x04, negotiated per subscription via [SUB ... BIN]) skips text
   parsing of the fixed-width header fields:

     NOTIFY      '\x03' · sub u32 · at u64 · bindings text
     NOTIFY_GAP  '\x04' · sub u32 · dropped u64

   The bindings text is shared verbatim with the text form: one line per
   satisfying environment, [var=value] pairs separated by tabs.  Values
   are object identifiers and instants (identifier-shaped — the
   condition calculus binds no free-text values), so the separators
   cannot occur inside them. *)

type notify = {
  sub : int;
  at : int;
  bindings : (string * string) list list;
}

let tag_notify = '\x03'
let tag_notify_gap = '\x04'

let bindings_text bindings =
  if bindings = [] then invalid_arg "Protocol: NOTIFY with zero environments";
  String.concat "\n"
    (List.map
       (fun env ->
         String.concat "\t" (List.map (fun (v, x) -> v ^ "=" ^ x) env))
       bindings)

let bindings_of_text body =
  let parse_env line =
    if line = "" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | pair :: rest -> (
            match String.index_opt pair '=' with
            | Some eq when eq > 0 ->
                go
                  ((String.sub pair 0 eq,
                    String.sub pair (eq + 1) (String.length pair - eq - 1))
                  :: acc)
                  rest
            | _ -> Error (Printf.sprintf "malformed binding %S" pair))
      in
      go [] (String.split_on_char '\t' line)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_env line with
        | Ok env -> go (env :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char '\n' body)

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let add_u64 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 56) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 48) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 40) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 32) land 0xFF));
  add_u32 buf (v land 0xFFFFFFFF)

let get_u32 s off =
  let b i = Char.code s.[off + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* u64 fields hold instants and drop counts the server produced; values
   past OCaml's 63-bit int (top byte >= 0x40) are a decode error, never
   an overflow — mirroring [Event_codec.decode_record]'s guard. *)
let get_u64 s off =
  let b i = Char.code s.[off + i] in
  if b 0 >= 0x40 then None
  else
    Some
      ((b 0 lsl 56) lor (b 1 lsl 48) lor (b 2 lsl 40) lor (b 3 lsl 32)
      lor get_u32 s (off + 4))

let notify_to_payload ~binary { sub; at; bindings } =
  if sub < 0 || sub > max_sub_id then
    invalid_arg "Protocol: NOTIFY sub id out of range";
  if at < 0 then invalid_arg "Protocol: NOTIFY with a negative instant";
  let body = bindings_text bindings in
  if binary then begin
    let buf = Buffer.create (13 + String.length body) in
    Buffer.add_char buf tag_notify;
    add_u32 buf sub;
    add_u64 buf at;
    Buffer.add_string buf body;
    Buffer.contents buf
  end
  else Printf.sprintf "NOTIFY %d %d\n%s" sub at body

let notify_gap_to_payload ~binary ~sub ~dropped =
  if sub < 0 || sub > max_sub_id then
    invalid_arg "Protocol: NOTIFY_GAP sub id out of range";
  if dropped <= 0 then
    invalid_arg "Protocol: NOTIFY_GAP must report a positive drop count";
  if binary then begin
    let buf = Buffer.create 13 in
    Buffer.add_char buf tag_notify_gap;
    add_u32 buf sub;
    add_u64 buf dropped;
    Buffer.contents buf
  end
  else Printf.sprintf "NOTIFY_GAP %d %d" sub dropped

let is_notify_payload payload =
  if payload = "" then false
  else if payload.[0] = tag_notify || payload.[0] = tag_notify_gap then true
  else
    let verb, _ = split_verb payload in
    match verb with "NOTIFY" | "NOTIFY_GAP" -> true | _ -> false

(* Total, both forms: the client's classification step.  The server is
   the encoder, so errors here mean a corrupted stream, not a protocol
   negotiation problem. *)
let notify_of_payload payload =
  let len = String.length payload in
  if len = 0 then Error "empty notify payload"
  else if payload.[0] = tag_notify then
    if len < 13 then Error "binary NOTIFY shorter than its header"
    else
      let sub = get_u32 payload 1 in
      match get_u64 payload 5 with
      | None -> Error "binary NOTIFY instant overflows"
      | Some at -> (
          match bindings_of_text (String.sub payload 13 (len - 13)) with
          | Ok bindings when bindings <> [] -> Ok (`Notify { sub; at; bindings })
          | Ok _ -> Error "binary NOTIFY with zero environments"
          | Error _ as e -> e)
  else if payload.[0] = tag_notify_gap then
    if len <> 13 then Error "binary NOTIFY_GAP must be 13 bytes"
    else
      let sub = get_u32 payload 1 in
      match get_u64 payload 5 with
      | None -> Error "binary NOTIFY_GAP count overflows"
      | Some dropped -> Ok (`Gap (sub, dropped))
  else
    let verb, arg = split_verb payload in
    match verb with
    | "NOTIFY" -> (
        match String.index_opt arg '\n' with
        | None -> Error "NOTIFY without a bindings block"
        | Some nl -> (
            let head = String.sub arg 0 nl in
            let body = String.sub arg (nl + 1) (String.length arg - nl - 1) in
            match String.split_on_char ' ' (String.trim head) with
            | [ sub_text; at_text ] -> (
                match (int_of_string_opt sub_text, int_of_string_opt at_text) with
                | Some sub, Some at when sub >= 0 && at >= 0 -> (
                    match bindings_of_text body with
                    | Ok bindings when bindings <> [] ->
                        Ok (`Notify { sub; at; bindings })
                    | Ok _ -> Error "NOTIFY with zero environments"
                    | Error _ as e -> e)
                | _ -> Error "NOTIFY takes two non-negative integers")
            | _ -> Error "NOTIFY takes <sub> <at>"))
    | "NOTIFY_GAP" -> (
        match String.split_on_char ' ' (String.trim arg) with
        | [ sub_text; dropped_text ] -> (
            match
              (int_of_string_opt sub_text, int_of_string_opt dropped_text)
            with
            | Some sub, Some dropped when sub >= 0 && dropped > 0 ->
                Ok (`Gap (sub, dropped))
            | _ -> Error "NOTIFY_GAP takes <sub> <dropped>")
        | _ -> Error "NOTIFY_GAP takes <sub> <dropped>")
    | other -> Error (Printf.sprintf "not a notify push: %S" other)

(* ------------------------------------------------------------ framing *)

let frame_into ~max_frame buf payload =
  let n = String.length payload in
  if n = 0 then Error "cannot frame an empty payload"
  else if n > max_frame then
    Error
      (Printf.sprintf "payload of %d bytes exceeds the %d-byte frame cap" n
         max_frame)
  else begin
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (n land 0xFF));
    Buffer.add_string buf payload;
    Ok ()
  end

let frame_exn ~max_frame payload =
  let buf = Buffer.create (String.length payload + header_bytes) in
  match frame_into ~max_frame buf payload with
  | Ok () -> Buffer.contents buf
  | Error msg -> invalid_arg ("Protocol.frame_exn: " ^ msg)

type decoded =
  | Frame of string * int
  | Need_more
  | Reject of string * int
  | Corrupt of string

(* The length prefix is read as an unsigned 32-bit value into an OCaml
   int (63-bit), so the decode itself cannot overflow; the cap check
   then classifies anything oversized — including a prefix with the high
   bit set, which a signed 32-bit reader would see as negative — as
   [Corrupt], never as an exception.  The payload is copied out exactly
   once, so the caller may compact its buffer right after. *)
let decode ~max_frame bytes ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length bytes then
    Corrupt "decode range outside the buffer"
  else if len < header_bytes then Need_more
  else
    let b i = Char.code (Bytes.get bytes (off + i)) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n = 0 then Reject ("zero-length frame", header_bytes)
    else if n > max_frame then
      Corrupt
        (Printf.sprintf "length prefix %d exceeds the %d-byte frame cap" n
           max_frame)
    else if len < header_bytes + n then Need_more
    else Frame (Bytes.sub_string bytes (off + header_bytes) n, header_bytes + n)
