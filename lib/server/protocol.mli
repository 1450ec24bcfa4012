(** The wire protocol of [chimera serve]: length-prefixed frames carrying
    one text command (or reply) each.

    A frame is a 4-byte big-endian unsigned length prefix followed by
    exactly that many payload bytes.  Payloads are text: a verb, then —
    separated by one space or newline — an optional argument.  [LINE]
    arguments are ordinary rule-language script text (the [lib/lang]
    grammar), so the protocol adds framing and control verbs but no new
    statement syntax.

    Decoding never raises: torn frames report [Need_more], a zero
    length-prefix is rejected frame-locally ([Reject] — the connection
    can continue), and an oversized or overflowed length prefix loses
    framing ([Corrupt] — the server replies [ERR] and closes). *)

val version : string
(** The protocol identifier exchanged by [HELLO], currently ["chimera/1"]. *)

val features : string list
(** Feature tokens the server advertises in its [HELLO] reply. *)

val default_max_frame : int
(** Default payload-size cap, in bytes (64 KiB). *)

val header_bytes : int
(** Size of the length prefix (4). *)

(** {1 Commands} (client to server) *)

type command =
  | Hello of string  (** [HELLO <version>]: version/feature negotiation *)
  | Line of string
      (** [LINE <script text>]: one transaction line — rule-language
          statements executed as a block (definitions included;
          [commit;] is refused, use the COMMIT verb) *)
  | Etype of { id : int; name : string }
      (** [ETYPE <id> <name>]: intern the external event-type [name]
          under the session-local numeric [id] (0..{!max_etype_id}), for
          binary frames to reference.  Re-announcing an id rebinds it. *)
  | Event of { etype : string; oid : int }
      (** [EVENT <etype> <oid>]: record one external event occurrence on
          the open transaction — the text twin of the binary EVENT
          frame.  The server assigns the instant; opens a transaction
          like [LINE] *)
  | Commit  (** close the open transaction durably *)
  | Abort  (** roll the open transaction back *)
  | Stats  (** engine + server statistics snapshot *)
  | Ping of string  (** liveness probe; the token is echoed *)
  | Quit  (** orderly close (an open transaction is aborted) *)
  | Repl_hello of string
      (** [REPL_HELLO <version> <engines>]: a follower announcing itself
          and its shard count (which must match the primary's); answered
          [OK <version> shards=<n>], after which the connection is a
          full-duplex replication stream *)
  | Repl_ack of { shard : int; seq : int }
      (** [REPL_ACK <shard> <seq>]: the follower has durably written
          [shard]'s records through commit [seq] locally.  Fire-and-
          forget — never answered *)
  | Promote
      (** [PROMOTE]: administrative — a standby stops following and
          starts serving; [ERR state] on a server that is not one *)
  | Sub of { id : int; binary : bool; spec : string }
      (** [SUB <id> [BIN] ON <event-expr> [DO <atoms>]]: register the
          ad-hoc rule [spec] — everything from [ON] on, verbatim, parsed
          by the language front end ({!Chimera_lang.Parser.parse_subscription})
          — under the session-local [id] (0..{!max_sub_id}).  [BIN]
          negotiates binary NOTIFY frames for this subscription.
          Answered [OK] (or [ERR parse]/[ERR state]); requires the [sub]
          HELLO feature and a closed transaction *)
  | Unsub of { id : int }
      (** [UNSUB <id>]: drop the subscription; notifies from commits
          that preceded the UNSUB are still delivered first.  [ERR
          state] on an unknown id *)

val command_to_payload : command -> string
val command_of_payload : string -> (command, string) result

val is_repl_payload : string -> bool
(** The payload carries a replication-stream or admin verb ([REPL_HELLO],
    [REPL_ACK], [PROMOTE]) that the reactor handles itself, before
    ordinary session dispatch. *)

val max_etype_id : int
(** Highest id [ETYPE] accepts (65535): session etype tables are arrays
    indexed by id, and the cap bounds their size. *)

val max_sub_id : int
(** Highest id [SUB] accepts (65535): bounds the per-connection
    subscription registry. *)

(** {1 Binary event frames} (client to server, negotiated by [bin])

    The hot ingestion path rides inside the same 4-byte framing but
    skips text parsing entirely.  A binary payload starts with a control
    tag byte (< 0x20 — no text verb does), followed by fixed-width
    big-endian records owned by {!Event_codec}:

    {v
    EVENT  '\x01' · record                      (21 bytes)
    BATCH  '\x02' · count u32 · count × record  (5 + 20·count bytes)
    record = etype-id u32 · oid u64 · timestamp u64   (20 bytes)
    v}

    Etype ids refer to the session's [ETYPE] table.  Each frame gets
    exactly one reply ([OK]/[TRIGGERED]/[ERR]); a BATCH is applied as
    that many single events in order, replying once — on an error the
    preceding records stay applied and the transaction stays open.  The
    server assigns event instants; the timestamp field is the client's
    clock, carried for tooling but not trusted. *)

type event_record = { etype_id : int; oid : int; timestamp : int }

val is_binary_payload : string -> bool
(** The payload's first byte is a binary tag (any control byte, not just
    the known tags — unknown tags are then rejected frame-locally by
    {!decode_binary}). *)

val encode_event : etype_id:int -> oid:int -> timestamp:int -> string
(** One EVENT payload (framing not included). *)

val encode_batch : event_record list -> string
(** One BATCH payload.  Raises [Invalid_argument] on an empty list. *)

val check_binary : string -> (int, string) result
(** O(1) shape check — tag known, length consistent — returning the
    record count; the reactor runs this before acquiring a shard, the
    per-record field validation happens in {!decode_binary} on a worker
    domain. *)

val decode_binary : string -> (event_record list, string) result
(** Total over arbitrary payload bytes: unknown tags, size/count
    mismatches and field overflows are [Error] (one ERR reply, the
    connection continues), never exceptions. *)

(** {1 Replies} (server to client) *)

type reply =
  | Ok_ of string  (** [OK] or [OK <info>] (e.g. inspection output) *)
  | Triggered of string list
      (** [TRIGGERED <rule> ...]: the line (or commit) executed these
          rules, in execution order *)
  | Err of string * string
      (** [ERR <code> <message>]; codes: [proto], [parse], [engine],
          [state], [busy], [overflow], [oversize], [shutdown] *)

val reply_to_payload : reply -> string
val reply_of_payload : string -> (reply, string) result

(** {1 Replication pushes} (primary to follower)

    Streamed over a replication session once [REPL_HELLO] is answered;
    not replies to any command. *)

type push =
  | Repl_segment of { shard : int; generation : int }
      (** [REPL_SEGMENT <shard> <gen>]: a new journal segment generation
          begins for [shard] (initial attach, or the primary rotated):
          the follower resets the shard and its local copy *)
  | Repl_records of { shard : int; head_seq : int; data : string }
      (** [REPL_RECORDS <shard> <head-seq>\n<raw record lines>]: framed
          journal records of [shard], whole lines ending at a
          commit/abort marker; [head_seq] is the primary's current
          commit sequence for the shard (for the follower's lag gauge) *)

val push_to_payload : push -> string
val push_of_payload : string -> (push, string) result
val is_push_payload : string -> bool

(** {1 Subscription pushes} (server to subscriber, negotiated by [sub])

    Pushed asynchronously at commit points; not replies to any command —
    a client with frames in flight classifies each incoming frame with
    {!is_notify_payload} before matching it against its FIFO reply
    expectations.  Two encodings of the same data:

    {v
    NOTIFY <sub> <at>\n<bindings>          (text)
    NOTIFY_GAP <sub> <dropped>             (text)
    NOTIFY      '\x03' · sub u32 · at u64 · bindings   (binary, SUB ... BIN)
    NOTIFY_GAP  '\x04' · sub u32 · dropped u64         (binary)
    v}

    [bindings] is one line per satisfying environment of the rule's
    condition, [var=value] pairs separated by tabs (values are object
    identifiers and instants, which cannot contain the separators).  A
    NOTIFY carries at least one environment.  [NOTIFY_GAP] declares the
    overflow policy's receipt: [dropped] notifies of [sub] were shed
    because the connection's notify queue was full ([drop-oldest]); it
    is pushed before the subscription's next delivered notify, so a
    subscriber always learns about a gap in stream position. *)

type notify = {
  sub : int;  (** the subscription id the client chose *)
  at : int;  (** activation instant — the rule's [ts] evaluation point *)
  bindings : (string * string) list list;
      (** one list per satisfying environment, in declaration order *)
}

val notify_to_payload : binary:bool -> notify -> string
(** Raises [Invalid_argument] on out-of-range fields or zero
    environments — the server is the trusted encoder. *)

val notify_gap_to_payload : binary:bool -> sub:int -> dropped:int -> string

val is_notify_payload : string -> bool
(** The payload is a notify push, either form (text [NOTIFY]/
    [NOTIFY_GAP] verbs, or binary tags 0x03/0x04). *)

val notify_of_payload :
  string -> ([ `Notify of notify | `Gap of int * int ], string) result
(** Total over both forms; [`Gap (sub, dropped)].  An [Error] on a
    stream the server encoded means corruption, not negotiation. *)

(** {1 Framing} *)

val frame_into :
  max_frame:int -> Buffer.t -> string -> (unit, string) result
(** Appends the length prefix and payload; [Error] when the payload is
    empty or exceeds [max_frame] (nothing is appended then). *)

val frame_exn : max_frame:int -> string -> string
(** Convenience for tests and the load generator; raises
    [Invalid_argument] where {!frame_into} errors. *)

type decoded =
  | Frame of string * int
      (** one intact payload and the bytes consumed (prefix included) *)
  | Need_more  (** the buffer holds a strict prefix of a frame *)
  | Reject of string * int
      (** a framed protocol violation (zero-length frame): the reason
          and the bytes to skip; the stream stays framed *)
  | Corrupt of string
      (** framing lost (length prefix overflow / over [max_frame]):
          reply [ERR] best-effort and close *)

val decode : max_frame:int -> Bytes.t -> off:int -> len:int -> decoded
(** Decodes the first frame of [len] bytes at [off]; never raises (an
    [off]/[len] range outside the buffer is itself [Corrupt]). *)
