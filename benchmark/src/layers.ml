(* The per-layer trace, measured from outside: each layer's public entry
   points are called here on the workload's own seeded inputs and timed
   around the call.  A layer's self time is its call time minus the time
   of the layer it calls, measured on the same inputs:

     Server.poll (inline)      - Session.Manager calls   = server self
     Session.Manager calls     - engine - parse - decode = session self
     Engine / Interp calls                                = engine

   so the self times of one event add up to the in-process server's time
   per event, which is compared with the wall time of the inline run
   (server and client in this thread). *)

open Core

let now_ns = Monotime.now_ns

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* Nanoseconds per call of [f], repeating it for at least [min_ns]. *)
let per_call ?(min_ns = 20_000_000) f =
  let t0 = now_ns () and calls = ref 0 in
  while !calls = 0 || now_ns () - t0 < min_ns do
    f ();
    incr calls
  done;
  float_of_int (now_ns () - t0) /. float_of_int !calls

let sum = Array.fold_left ( + ) 0
let fdiv a b = float_of_int a /. float_of_int (max 1 b)

let ok_exn what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

(* ------------------------------------------------------------ protocol *)

(* Framing ([Protocol.decode] over the connection's byte stream) and
   payload decoding ([decode_binary] / [command_of_payload]), separately:
   the payload decode runs inside the session, the framing in the
   server. *)
let decode_ns (ops : Workload.op array) =
  let payloads = Array.map Workload.payload ops in
  let bytes = Bytes.of_string (String.concat "" (Array.to_list (Array.map Workload.frame ops))) in
  let framing =
    per_call (fun () ->
        let off = ref 0 in
        while !off < Bytes.length bytes do
          match
            Protocol.decode ~max_frame:Workload.max_frame bytes ~off:!off
              ~len:(Bytes.length bytes - !off)
          with
          | Protocol.Frame (_, used) | Protocol.Reject (_, used) -> off := !off + used
          | Protocol.Need_more | Protocol.Corrupt _ -> off := Bytes.length bytes
        done)
  in
  let payload =
    per_call (fun () ->
        Array.iter
          (fun p ->
            if Protocol.is_binary_payload p then ignore (Protocol.decode_binary p)
            else ignore (Protocol.command_of_payload p))
          payloads)
  in
  (framing, payload)

let encode_ns (w : Workload.t) (oracle : Replay.t) ~upto =
  let replies = Array.concat (Array.to_list (Array.sub oracle.raw 0 upto)) in
  let notifies =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun sub acts ->
              Array.of_list
                (List.filter_map
                   (fun (a : Replay.activation) ->
                     if a.tx < upto then
                       Some (snd w.subs.(sub), { Protocol.sub; at = a.at; bindings = a.bindings })
                     else None)
                   acts))
            oracle.activations))
  in
  let ns =
    per_call (fun () ->
        Array.iter (fun r -> ignore (Protocol.reply_to_payload r)) replies;
        Array.iter (fun (binary, n) -> ignore (Protocol.notify_to_payload ~binary n)) notifies)
  in
  ns /. float_of_int (max 1 (Array.length replies + Array.length notifies))

(* ---------------------------------------------------------------- lang *)

(* Every text the workload has the server parse: LINE payloads, the boot
   script (per statement) and SUB specs.  Returns ns per line and the time
   of the stream's LINE parses alone (which the session performs). *)
let parse_ns (w : Workload.t) (ops : Workload.op array) =
  let lines =
    Array.of_list (Array.fold_right (fun op acc -> match op with Workload.Line l -> l :: acc | _ -> acc) ops [])
  in
  let line_ns =
    if Array.length lines = 0 then 0.
    else per_call (fun () -> Array.iter (fun l -> ignore (Lang_parser.parse l)) lines)
  in
  let boot_ns, boot_statements =
    if w.boot = "" then (0., 0)
    else
      ( per_call (fun () -> ignore (Lang_parser.parse w.boot)),
        List.length (ok_exn "boot script" (Lang_parser.parse w.boot)) )
  in
  let subs_ns =
    if Array.length w.subs = 0 then 0.
    else
      per_call (fun () ->
          Array.iter (fun (spec, _) -> ignore (Lang_parser.parse_subscription spec)) w.subs)
  in
  let units = Array.length lines + boot_statements + Array.length w.subs in
  ((line_ns +. boot_ns +. subs_ns) /. float_of_int (max 1 units), line_ns)

(* ------------------------------------------------------------- engine *)

type engine_pass = {
  line_ns : int array;  (** per event (binary) or per LINE, in order *)
  op_ns : int array;  (** engine time of each stream op, in order *)
  commit_ns : int array;
  abort_ns : int array;  (** stream aborts, then the rolled-back re-runs *)
  engine_total_ns : int;  (** the stream's engine time *)
  ts_eval_ns : float;
  occurrences : (Event_type.t * Ident.Oid.t) array;
  live_objects : int;
}

(* The expressions the workload's rules watch, or its event types when it
   has no rules. *)
let rule_exprs (w : Workload.t) =
  let triggers =
    if w.boot = "" then []
    else
      List.filter_map
        (function Lang_ast.Define_trigger spec -> Some spec.Rule.event | _ -> None)
        (ok_exn "boot script" (Lang_parser.parse w.boot))
  in
  let subs =
    Array.to_list
      (Array.map (fun (spec, _) -> fst (ok_exn "SUB" (Lang_parser.parse_subscription spec))) w.subs)
  in
  match triggers @ subs with
  | [] -> Array.to_list (Array.map (fun e -> ok_exn "etype" (Expr_parse.parse e)) w.etypes)
  | exprs -> exprs

let max_captured = 200_000

(* The stream through [Engine.ingest_event], [Interp.run_statement],
   [Engine.commit] and [Engine.abort], timed per event with [per_event]
   (the distribution, and the recorded occurrences are captured; both
   inflate the totals of cheap events) or per op (the totals other layers
   subtract).  Aborts are also sampled after the stream, on its final
   state, by running the last transactions once more and rolling them
   back: every workload gets abort samples without perturbing the
   measured pass. *)
let engine_pass ~per_event (w : Workload.t) (stream : Workload.txn array) =
  let s = Replay.boot w in
  Array.iter (fun op -> ignore (Replay.apply s op)) w.preload;
  ignore (Engine.drain_activations s.engine);
  let eb = Engine.event_base s.engine in
  let captured = ref [] and ncaptured = ref 0 in
  if per_event then
    Event_base.on_insert eb (fun occ ->
        if !ncaptured < max_captured then begin
          captured := (Occurrence.etype occ, Occurrence.oid occ) :: !captured;
          incr ncaptured
        end);
  let lines = ref [] and ops = ref [] and commits = ref [] and aborts = ref [] in
  let total = ref 0 and ts_eval_ns = ref 0. in
  let n = Array.length stream in
  let exprs = rule_exprs w in
  let run_op (op : Workload.op) =
    s.executed := [];
    Interp.clear_output s.interp;
    match op with
    | Records { etypes; oids } ->
        let ingest i oid =
          match Replay.ingest s ~etype_id:etypes.(i) ~oid with
          | Ok () -> ()
          | Error e -> failwith (Fmt.str "ingest: %a" Engine.pp_error e)
        in
        if per_event then begin
          let acc = ref 0 in
          Array.iteri
            (fun i oid ->
              let (), dt = timed (fun () -> ingest i oid) in
              lines := dt :: !lines;
              acc := !acc + dt)
            oids;
          !acc
        end
        else snd (timed (fun () -> Array.iteri ingest oids))
    | Line text ->
        let statements = Replay.parse_line text in
        let dt =
          List.fold_left
            (fun acc stmt ->
              let res, dt = timed (fun () -> Interp.run_statement s.interp stmt) in
              ignore (ok_exn "line" res);
              acc + dt)
            0 statements
        in
        lines := dt :: !lines;
        dt
    | Commit ->
        let res, dt = timed (fun () -> Engine.commit s.engine) in
        (match res with
        | Ok () -> ()
        | Error e -> failwith (Fmt.str "commit: %a" Engine.pp_error e));
        ignore (Engine.drain_activations s.engine);
        commits := dt :: !commits;
        dt
    | Abort ->
        let (), dt = timed (fun () -> Engine.abort s.engine) in
        aborts := dt :: !aborts;
        dt
  in
  Array.iteri
    (fun tx (t : Workload.txn) ->
      let last = Array.length t.ops - 1 in
      Array.iteri
        (fun i op ->
          (* The calculus over the last transaction's window, just before
             it commits: every rule expression evaluated directly. *)
          if tx = n - 1 && i = last then begin
            (* A compacting commit replaces the event base: look it up. *)
            let eb = Engine.event_base s.engine in
            let at = Event_base.probe_now eb in
            let env = Ts.env eb ~window:(Window.make ~after:(Engine.tx_start s.engine) ~upto:at) in
            ts_eval_ns :=
              List.fold_left
                (fun acc e -> acc +. per_call ~min_ns:5_000_000 (fun () -> ignore (Ts.ts env ~at e)))
                0. exprs
              /. float_of_int (List.length exprs)
          end;
          let dt = run_op op in
          ops := dt :: !ops;
          total := !total + dt)
        t.ops)
    stream;
  for i = 1 to min n 20 do
    let t = stream.(n - i) in
    Array.iteri
      (fun j op -> if j < Array.length t.ops - 1 then ignore (Replay.apply s op))
      t.ops;
    let (), dt = timed (fun () -> Engine.abort s.engine) in
    aborts := dt :: !aborts
  done;
  let rev l = Array.of_list (List.rev l) in
  {
    line_ns = rev !lines;
    op_ns = rev !ops;
    commit_ns = rev !commits;
    abort_ns = rev !aborts;
    engine_total_ns = !total;
    ts_eval_ns = !ts_eval_ns;
    occurrences = rev !captured;
    live_objects = Object_store.count_live (Engine.store s.engine);
  }

let record_ns occurrences =
  let n = Array.length occurrences in
  if n = 0 then 0.
  else
    per_call (fun () ->
        let eb = Event_base.create () in
        Array.iter (fun (etype, oid) -> ignore (Event_base.record eb ~etype ~oid)) occurrences)
    /. float_of_int n

(* ------------------------------------------------------------ journal *)

type journal_pass = {
  append_ns : float;
  commit_ns : float;
  bytes_per_event : float;
  checkpoint_ns : float;
}

(* The engine writes the journal (unsynced, to capture its records); the
   records are then appended and committed into a fresh per-commit
   fsynced journal, timed; [Engine.checkpoint_now] is timed on the
   journaled engine at the end. *)
let journal_pass (w : Workload.t) (stream : Workload.txn array) ~dir =
  let path = Filename.concat dir "trace.journal" in
  let j = Journal.create ~sync:Journal.Never ~path () in
  let s = Replay.boot ~journal:j w in
  Array.iter (fun op -> ignore (Replay.apply s op)) w.preload;
  let bytes0 = (Journal.counters j).bytes_written in
  Array.iter (fun (t : Workload.txn) -> Array.iter (fun op -> ignore (Replay.apply s op)) t.ops) stream;
  let events = sum (Array.map Workload.txn_events stream) in
  let bytes_per_event = fdiv ((Journal.counters j).bytes_written - bytes0) events in
  let replay = ok_exn "journal read" (Journal.read ~path) in
  Engine.enable_checkpoints s.engine ~every_commits:max_int ();
  let checkpoints =
    Array.init 5 (fun _ ->
        let res, dt = timed (fun () -> Engine.checkpoint_now s.engine) in
        ignore (ok_exn "checkpoint" res);
        float_of_int dt)
  in
  Journal.close j;
  let replay_path = Filename.concat dir "trace-replay.journal" in
  let j2 = Journal.create ~sync:Journal.Per_commit ~path:replay_path () in
  let appends = ref 0 and append_ns = ref 0 and commits = ref 0 and commit_ns = ref 0 in
  List.iteri
    (fun i group ->
      if i < 500 then begin
        List.iter
          (fun (e : Journal.entry) ->
            let (), dt = timed (fun () -> Journal.append j2 ~tag:e.tag e.payload) in
            incr appends;
            append_ns := !append_ns + dt)
          group;
        let (), dt = timed (fun () -> Journal.commit j2) in
        incr commits;
        commit_ns := !commit_ns + dt
      end)
    replay.committed;
  Journal.close j2;
  {
    append_ns = fdiv !append_ns !appends;
    commit_ns = fdiv !commit_ns !commits;
    bytes_per_event;
    checkpoint_ns = Stats.median checkpoints;
  }

(* ------------------------------------------------------------ session *)

let boot_script (w : Workload.t) = if w.boot = "" then None else Some w.boot

let is_reply_for sid = function
  | Session.Manager.Reply (s, _) | Session.Manager.Committed { sid = s; _ } -> s = sid
  | Session.Manager.Close _ | Session.Manager.Notify _ -> false

(* Submits one payload and returns once its reply is out: immediately in
   inline mode, through [pump] (woken by the manager's fd) with a worker
   domain. *)
let submit m sid payload =
  let evs =
    if Protocol.is_binary_payload payload then Session.Manager.on_binary m sid payload
    else Session.Manager.on_payload m sid payload
  in
  if not (List.exists (is_reply_for sid) evs) then
    match Session.Manager.wakeup_fd m with
    | None -> failwith "session: no reply in inline mode"
    | Some fd ->
        let rec wait () =
          if not (List.exists (is_reply_for sid) (Session.Manager.pump m)) then begin
            ignore (Unix.select [ fd ] [] [] 0.01);
            wait ()
          end
        in
        wait ()

let with_manager (w : Workload.t) ~domains f =
  let m =
    ok_exn "session" (Session.Manager.create ~engines:1 ~domains ?boot_script:(boot_script w) ())
  in
  Fun.protect ~finally:(fun () -> Session.Manager.shutdown m) @@ fun () ->
  let sids = Array.init (Workload.conns w) (fun _ -> Session.Manager.open_session m) in
  Array.iteri
    (fun conn sid ->
      submit m sid (Workload.hello_payload conn);
      List.iter
        (fun cmd -> submit m sid (Protocol.command_to_payload cmd))
        (Workload.setup_commands w ~conn))
    sids;
  Array.iter (fun op -> submit m sids.(0) (Workload.payload op)) w.preload;
  f m sids

(* Inline ([domains 0]): the manager's own time per stream op. *)
let session_inline w (stream : Workload.txn array) =
  with_manager w ~domains:0 (fun m sids ->
      Array.fold_left
        (fun acc (t : Workload.txn) ->
          Array.fold_left
            (fun acc op ->
              let payload = Workload.payload op in
              let (), dt = timed (fun () -> submit m sids.(t.conn) payload) in
              acc + dt)
            acc t.ops)
        0 stream)

(* One worker domain, one op in flight: submit to reply out of [pump],
   minus the op's engine time — the hand-off through the mailbox and
   back. *)
let session_mailbox w (stream : Workload.txn array) ~(op_ns : int array) =
  with_manager w ~domains:1 (fun m sids ->
      let k = ref 0 in
      Array.concat
        (Array.to_list
           (Array.map
              (fun (t : Workload.txn) ->
                Array.map
                  (fun op ->
                    let payload = Workload.payload op in
                    let (), dt = timed (fun () -> submit m sids.(t.conn) payload) in
                    let wait = dt - op_ns.(!k) in
                    incr k;
                    wait)
                  t.ops)
              stream)))

(* ------------------------------------------------------------- server *)

type server_pass = { poll_ns : int; turns : int; wall_ns : int }

(* The real reactor in this process, inline ([--domains 0]), with the
   client on the same thread: every turn is one timed [Server.poll]. *)
let server_inline (w : Workload.t) (stream : Workload.txn array) =
  let srv =
    ok_exn "server"
      (Server.create
         {
           Server.default_config with
           port = 0;
           engines = 1;
           domains = Some 0;
           boot_script = boot_script w;
         })
  in
  let d = Drive.connect ~port:(Server.port srv) (Workload.conns w) in
  let poll_ns = ref 0 and turns = ref 0 in
  let turn () =
    let _, dt = timed (fun () -> Server.poll srv ~timeout:0.) in
    poll_ns := !poll_ns + dt;
    incr turns
  in
  let deadline_ns = now_ns () + 120_000_000_000 in
  let closed reqs = Drive.closed ~turn ~wait:0. d ~window:Workload.window ~deadline_ns reqs in
  let setup =
    Array.of_list
      (List.concat
         (List.init (Workload.conns w) (fun conn ->
              Drive.request ~conn Drive.Control (Drive.Payload (Workload.hello_payload conn))
              :: List.map (Drive.control ~conn) (Workload.setup_commands w ~conn))))
  in
  closed setup;
  closed (Array.map (Drive.req_of_op ~conn:0) w.preload);
  poll_ns := 0;
  turns := 0;
  let (), wall_ns =
    timed (fun () -> closed (Drive.stream_reqs stream ~lo:0 ~hi:(Array.length stream)))
  in
  Drive.close d;
  Server.request_drain srv;
  while Server.poll srv ~timeout:0.01 = Server.Running do
    ()
  done;
  { poll_ns = !poll_ns; turns = !turns; wall_ns }
