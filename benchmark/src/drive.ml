(* The load generator: one thread driving at most two connections to the
   server through [Protocol]'s public encoders and decoders.

   Two disciplines.  [closed] keeps up to [window] frames in flight per
   connection — the capacity phase, where a slower server receives less
   load.  [open_loop] sends each request at its due time whatever the
   server is doing — the fixed-rate phase — and every latency is counted
   from the due time, so a stall is charged to every request queued
   behind it, generator lateness included. *)

open Core

type kind = Work of int  (** events carried *) | Commit | Abort | Control

(* What a request sends: a stream op, encoded when it is sent so that
   long streams do not sit in memory as frames, or a ready payload. *)
type body = Op of Workload.op | Payload of string

type req = {
  conn : int;
  body : body;
  kind : kind;
  tx : int;  (** stream transaction, -1 for control frames *)
  op : int;  (** op index within the transaction *)
  mutable due : int;
  mutable sent : int;
  mutable recv : int;
  mutable reply : Protocol.reply option;
}

type push = Notify of Protocol.notify * int  (** receipt time *) | Gap of int * int

type conn = {
  fd : Unix.file_descr;
  mutable outb : Bytes.t;
  mutable out_lo : int;
  mutable out_hi : int;
  mutable inb : Bytes.t;
  mutable in_lo : int;
  mutable in_hi : int;
  expect : req Queue.t;
  mutable eof : bool;  (** closed by the server after its last reply *)
}

type t = {
  conns : conn array;
  mutable pushes : push list;  (** newest first *)
  mutable errors : string list;
  mutable sent_count : int;
  chunk : Bytes.t;
}

(* Every timestamp of the generator comes from here; tests inject a
   hand-stepped clock. *)
let clock = ref Monotime.now_ns
let now_ns () = !clock ()
let max_frame = Workload.max_frame

let request ?(tx = -1) ?(op = -1) ~conn kind body =
  {
    conn;
    body;
    kind;
    tx;
    op;
    due = 0;
    sent = 0;
    recv = 0;
    reply = None;
  }

let control ~conn cmd = request ~conn Control (Payload (Protocol.command_to_payload cmd))

(* The request carrying one op of the workload's stream. *)
let req_of_op ?tx ?op ~conn (o : Workload.op) =
  let kind =
    match o with
    | Records _ | Line _ -> Work (Workload.op_events o)
    | Commit -> Commit
    | Abort -> Abort
  in
  request ?tx ?op ~conn kind (Op o)

let stream_reqs (stream : Workload.txn array) ~lo ~hi =
  let acc = ref [] in
  for tx = lo to hi - 1 do
    let t = stream.(tx) in
    Array.iteri (fun op o -> acc := req_of_op ~tx ~op ~conn:t.conn o :: !acc) t.ops
  done;
  Array.of_list (List.rev !acc)

let of_fds fds =
  let conns =
    Array.map
      (fun fd ->
        Unix.set_nonblock fd;
        {
          fd;
          outb = Bytes.create 65536;
          out_lo = 0;
          out_hi = 0;
          inb = Bytes.create 65536;
          in_lo = 0;
          in_hi = 0;
          expect = Queue.create ();
          eof = false;
        })
      fds
  in
  { conns; pushes = []; errors = []; sent_count = 0; chunk = Bytes.create 65536 }

let connect ~port n =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  of_fds
    (Array.init n (fun _ ->
         let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.connect fd addr;
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         fd))

let close t =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let error t msg = t.errors <- msg :: t.errors

(* Appends [len] bytes of [src] to a growable [lo, hi) window,
   compacting first. *)
let append buf lo hi src len =
  let b, lo, hi =
    if hi + len <= Bytes.length buf then (buf, lo, hi)
    else
      let live = hi - lo in
      let b =
        if live + len <= Bytes.length buf then buf
        else Bytes.create (max (2 * Bytes.length buf) (live + len))
      in
      Bytes.blit buf lo b 0 live;
      (b, 0, live)
  in
  Bytes.blit src 0 b hi len;
  (b, lo, hi + len)

let send t req =
  let c = t.conns.(req.conn) in
  let payload = match req.body with Op o -> Workload.payload o | Payload p -> p in
  let frame = Protocol.frame_exn ~max_frame payload in
  let b, lo, hi =
    append c.outb c.out_lo c.out_hi (Bytes.unsafe_of_string frame) (String.length frame)
  in
  c.outb <- b;
  c.out_lo <- lo;
  c.out_hi <- hi;
  req.sent <- now_ns ();
  t.sent_count <- t.sent_count + 1;
  Queue.add req c.expect

let flush t =
  Array.iter
    (fun c ->
      if c.out_hi > c.out_lo then
        match Unix.write c.fd c.outb c.out_lo (c.out_hi - c.out_lo) with
        | n ->
            c.out_lo <- c.out_lo + n;
            if c.out_lo = c.out_hi then begin
              c.out_lo <- 0;
              c.out_hi <- 0
            end
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ())
    t.conns

let on_frame t c payload =
  if Protocol.is_notify_payload payload then
    match Protocol.notify_of_payload payload with
    | Ok (`Notify n) -> t.pushes <- Notify (n, now_ns ()) :: t.pushes
    | Ok (`Gap (sub, dropped)) -> t.pushes <- Gap (sub, dropped) :: t.pushes
    | Error msg -> error t ("bad notify: " ^ msg)
  else
    match (Protocol.reply_of_payload payload, Queue.take_opt c.expect) with
    | Ok reply, Some req ->
        req.recv <- now_ns ();
        req.reply <- Some reply
    | Ok _, None -> error t "reply nobody asked for"
    | Error msg, _ -> error t ("bad reply: " ^ msg)

let rec decode_frames t c =
  match
    Protocol.decode ~max_frame c.inb ~off:c.in_lo ~len:(c.in_hi - c.in_lo)
  with
  | Protocol.Need_more -> ()
  | Protocol.Frame (payload, used) ->
      c.in_lo <- c.in_lo + used;
      on_frame t c payload;
      decode_frames t c
  | Protocol.Reject (msg, used) ->
      c.in_lo <- c.in_lo + used;
      error t ("rejected frame: " ^ msg);
      decode_frames t c
  | Protocol.Corrupt msg ->
      error t ("corrupt stream: " ^ msg);
      c.in_lo <- c.in_hi

exception Closed of string

let read_conn t c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 ->
      (* After a QUIT's "bye" the server hangs up: that EOF is expected. *)
      if Queue.is_empty c.expect then c.eof <- true
      else raise (Closed "server closed the connection")
  | n ->
      let b, lo, hi = append c.inb c.in_lo c.in_hi t.chunk n in
      c.inb <- b;
      c.in_lo <- lo;
      c.in_hi <- hi;
      decode_frames t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) -> raise (Closed (Unix.error_message e))

(* One turn: flush, wait up to [timeout] seconds for input, dispatch it. *)
let pump t ~timeout =
  flush t;
  let reads =
    Array.fold_left (fun acc c -> if c.eof then acc else c.fd :: acc) [] t.conns
  in
  let writes =
    Array.fold_left
      (fun acc c -> if c.out_hi > c.out_lo then c.fd :: acc else acc)
      [] t.conns
  in
  match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      Array.iter
        (fun c -> if (not c.eof) && List.memq c.fd readable then read_conn t c)
        t.conns

let outstanding t =
  Array.fold_left (fun acc c -> acc + Queue.length c.expect) 0 t.conns

let check_deadline deadline_ns what =
  if now_ns () > deadline_ns then raise (Closed (what ^ " timed out"))

(* Closed loop: per connection, in order, at most [window] in flight.
   [turn] runs once per loop iteration, before waiting up to
   [wait] seconds for replies — an in-process server polls there. *)
let closed ?(turn = ignore) ?(wait = 0.05) t ~window ~deadline_ns (reqs : req array) =
  let per_conn =
    Array.init (Array.length t.conns) (fun i ->
        List.filter (fun r -> r.conn = i) (Array.to_list reqs) |> Array.of_list)
  in
  let cursor = Array.make (Array.length t.conns) 0 in
  let rec loop () =
    let pending = ref false in
    Array.iteri
      (fun i rs ->
        let c = t.conns.(i) in
        while cursor.(i) < Array.length rs && Queue.length c.expect < window do
          let r = rs.(cursor.(i)) in
          r.due <- now_ns ();
          send t r;
          cursor.(i) <- cursor.(i) + 1
        done;
        if cursor.(i) < Array.length rs then pending := true)
      per_conn;
    if !pending || outstanding t > 0 then begin
      check_deadline deadline_ns "closed-loop phase";
      flush t;
      turn ();
      pump t ~timeout:wait;
      loop ()
    end
  in
  loop ()

type open_stats = {
  late_ns : int array;  (** send time minus due time, per request *)
  backlog_mid : int;  (** requests outstanding halfway through the schedule *)
  backlog_end : int;  (** requests outstanding when the last one was sent *)
}

(* Open loop: [reqs] carry due times (ascending); each is sent when due,
   however many are still unanswered.  [turn] runs once per iteration. *)
let open_loop ?(turn = ignore) t ~deadline_ns (reqs : req array) =
  let n = Array.length reqs in
  let k = ref 0 and backlog_mid = ref 0 and backlog_end = ref 0 in
  while !k < n || outstanding t > 0 do
    check_deadline deadline_ns "fixed-rate phase";
    let now = now_ns () in
    while !k < n && reqs.(!k).due <= now do
      send t reqs.(!k);
      if !k = n / 2 then backlog_mid := outstanding t;
      incr k;
      if !k = n then backlog_end := outstanding t
    done;
    flush t;
    turn ();
    let timeout =
      if !k < n then float_of_int (max 0 (reqs.(!k).due - now_ns ())) /. 1e9
      else 0.05
    in
    pump t ~timeout:(Float.min timeout 0.05)
  done;
  {
    late_ns = Array.map (fun r -> r.sent - r.due) reqs;
    backlog_mid = !backlog_mid;
    backlog_end = !backlog_end;
  }
