(* One benchmark run of one workload: the engine-only replay, rounds of
   phases against fresh server processes, the gates, and the metrics.

   Every phase runs on a fresh [chimera serve --engines 1] (one reactor,
   one worker domain) and starts with the set-up: spawn, greeting, etype
   table or subscriptions, preload, and a closed-loop warm-up of the
   stream's first transactions.  Then:
   - capacity: a fixed number of transactions in a closed loop at the
     full window;
   - fixed rate: the stream sent open-loop at the workload's frozen rate,
     latencies timed from each request's due time;
   and the drain: QUIT, SIGTERM, exit status, [chimera recover] of a
   journal.  Every phase sends a prefix of one seeded stream, so one
   replay of the longest prefix is the oracle for all of them. *)

open Core

type config = {
  chimera : string;  (** path of the [chimera] executable *)
  workdir : string;  (** scratch space for boot scripts and journals *)
  seconds : float;  (** the run length, split between the phases *)
}

(* Transactions per phase, from the run length S and the frozen numbers:
   the warm-up is a quarter second of base capacity, each capacity
   repetition 0.075 S at base capacity, each fixed-rate repetition 0.15 S
   at the frozen rate — with four rounds, 0.3 S of capacity and 0.6 S of
   fixed rate in all. *)
type plan = { warm_tx : int; cap_tx : int; fix_tx : int; fix_seconds : float }

let events_per_tx (w : Workload.t) =
  Workload.txn_events (Workload.stream w ~seed:0 ~count:1).(0)

let plan (w : Workload.t) ~seconds =
  let per_tx = float_of_int (events_per_tx w) in
  let txns events = max 1 (int_of_float (Float.ceil (events /. per_tx))) in
  let fix_seconds = 0.15 *. seconds in
  {
    warm_tx = txns (0.25 *. w.base_capacity_eps);
    cap_tx = txns (w.base_capacity_eps *. 0.075 *. seconds);
    fix_tx = txns (w.rate_eps *. fix_seconds);
    fix_seconds;
  }

type mode = Closed | Open of float  (** events per second *)

type phase = {
  setup_s : float;  (** spawn until the first measured request *)
  stream_reqs : Drive.req array;  (** warm-up and measured, in send order *)
  measured : Drive.req array;
  elapsed_s : float;  (** first measured send to last measured reply *)
  events : int;
  pushes : Drive.push list;  (** in arrival order *)
  hwm_kb : int;
  stats : string option;  (** the server's STATS reply after the phase *)
  exit_text : string;  (** the server's stdout after the drain *)
  recover : (float * int * int) option;  (** seconds, reported seq, expected seq *)
  open_stats : Drive.open_stats option;
  upto : int;  (** stream transactions sent *)
  attempted : int;  (** frames sent, control frames included *)
  errors : string list;
}

let now_ns = Monotime.now_ns

let ok_reply (r : Drive.req) =
  match r.reply with Some (Protocol.Ok_ _ | Protocol.Triggered _) -> true | _ -> false

let reply_text (r : Drive.req) =
  match r.reply with Some (Protocol.Ok_ s) -> s | _ -> ""

(* Runs one phase on a fresh server.  [deadline_ns] bounds the whole run. *)
let run_phase cfg (w : Workload.t) ~stream ~(plan : plan) ~upto ~mode ~traced
    ~name ~deadline_ns =
  let dir = Filename.concat cfg.workdir name in
  Sut.mkdir_p dir;
  let script = Filename.concat cfg.workdir "boot.ch" in
  let args =
    [ "--engines"; "1" ]
    @ (if w.boot <> "" then [ "--script"; script ] else [])
    @ (if w.journal then
         [ "--journal"; dir; "--fsync"; "commit"; "--checkpoint-every"; "100" ]
       else [])
    @ if traced then [ "--metrics" ] else []
  in
  let env = if traced then [| "CHIMERA_METRICS=1" |] else [||] in
  match Sut.spawn ~chimera:cfg.chimera ~args ~env with
  | Error msg -> Error msg
  | Ok srv -> (
      let d = Drive.connect ~port:srv.port (Workload.conns w) in
      let errors = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
      let closed reqs = Drive.closed d ~window:Workload.window ~deadline_ns reqs in
      let control conn cmd =
        let r = Drive.control ~conn cmd in
        closed [| r |];
        if not (ok_reply r) then err "%s: control request refused" name;
        r
      in
      match
        let nconns = Workload.conns w in
        let setup =
          List.concat
            (List.init nconns (fun conn ->
                 Drive.request ~conn Drive.Control (Drive.Payload (Workload.hello_payload conn))
                 :: List.map (Drive.control ~conn) (Workload.setup_commands w ~conn)))
        in
        let setup = Array.of_list setup in
        closed setup;
        Array.iter (fun r -> if not (ok_reply r) then err "%s: set-up refused" name) setup;
        let base_commits =
          if w.journal then
            Text.int_after (reply_text (control 0 Protocol.Stats)) "record(s), "
          else None
        in
        let preload = Array.map (Drive.req_of_op ~conn:0) w.preload in
        closed preload;
        Array.iter (fun r -> if not (ok_reply r) then err "%s: preload refused" name) preload;
        let warm = Drive.stream_reqs stream ~lo:0 ~hi:plan.warm_tx in
        closed warm;
        let t_first = now_ns () in
        let measured = Drive.stream_reqs stream ~lo:plan.warm_tx ~hi:upto in
        let open_stats =
          match mode with
          | Closed ->
              closed measured;
              None
          | Open rate ->
              (* Events arrive at [rate]; a frame is due when its last
                 event has arrived, and a COMMIT or ABORT with the frame
                 that ends its transaction. *)
              let t0 = now_ns () + 1_000_000 and events = ref 0 in
              Array.iter
                (fun (r : Drive.req) ->
                  (match r.kind with
                  | Drive.Work n -> events := !events + n
                  | _ -> ());
                  r.due <- t0 + int_of_float (float_of_int !events /. rate *. 1e9))
                measured;
              Some (Drive.open_loop d ~deadline_ns measured)
        in
        let last =
          Array.fold_left (fun acc (r : Drive.req) -> max acc r.recv) t_first measured
        in
        (* A PING on the subscriber connection is answered behind every
           notify already owed to it: once it returns, the push stream of
           the phase is complete. *)
        if Array.length w.subs > 0 then
          ignore (control w.ingest_conns (Protocol.Ping "end"));
        let stats = if traced then Some (reply_text (control 0 Protocol.Stats)) else None in
        let quits =
          Array.init nconns (fun conn -> Drive.control ~conn Protocol.Quit)
        in
        closed quits;
        let hwm_kb = Sut.hwm_kb srv in
        let exit_text =
          match Sut.stop srv with
          | Ok text -> text
          | Error msg ->
              err "%s: %s" name msg;
              ""
        in
        let recover =
          if not w.journal then None
          else
            let acked =
              Array.fold_left
                (fun acc (r : Drive.req) ->
                  if r.kind = Drive.Commit && ok_reply r then acc + 1 else acc)
                0
                (Array.concat [ preload; warm; measured ])
            in
            match
              Sut.recover ~chimera:cfg.chimera
                ~journal:(Filename.concat dir "shard-0.journal")
                ~script
            with
            | Error msg ->
                err "%s: %s" name msg;
                None
            | Ok (secs, seq) ->
                let expected = Option.value base_commits ~default:0 + acked in
                Some (secs, seq, expected)
        in
        {
          setup_s = float_of_int (t_first - srv.spawned_ns) /. 1e9;
          stream_reqs = Array.append warm measured;
          measured;
          elapsed_s = float_of_int (last - t_first) /. 1e9;
          events =
            Array.fold_left
              (fun acc (r : Drive.req) ->
                match r.kind with Drive.Work n -> acc + n | _ -> acc)
              0 measured;
          pushes = List.rev d.pushes;
          hwm_kb;
          stats;
          exit_text;
          recover;
          open_stats;
          upto;
          attempted = d.sent_count;
          errors = List.rev_append !errors (List.rev d.errors);
        }
      with
      | phase ->
          Drive.close d;
          Sut.rm_rf dir;
          Ok phase
      | exception e ->
          Drive.close d;
          Sut.kill srv;
          Sut.rm_rf dir;
          (match e with
          | Drive.Closed msg -> Error (name ^ ": " ^ msg)
          | Unix.Unix_error (err, fn, _) ->
              Error (Printf.sprintf "%s: %s: %s" name fn (Unix.error_message err))
          | e -> raise e))

(* ------------------------------------------------------------------ runs *)

exception Run_failed of string

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** the end-to-end metrics every workload reports (BENCHMARK.json's),
          or with [trace] the per-layer ones *)
  extra : metric list;
      (** the other end-to-end metrics: the commit median and the p99
          latencies, those only some workloads have (notify delivery,
          recovery), and the error and gap ratios, which are 0 when all is
          well *)
  detail : Json.t;  (** tails with sample counts, repetitions, validity, gates *)
}

let ms ns = float_of_int ns /. 1e6

let tail_json ~want samples =
  let t = Stats.tail ~want samples in
  Json.Obj
    [
      ("pct", Json.Num t.pct);
      ("ms", Json.Num (ms t.value));
      ("samples", Json.Int t.samples);
    ]

let tail_ms ~want samples = ms (Stats.tail ~want samples).value

let latencies (reqs : Drive.req array) keep =
  Array.of_list
    (Array.fold_right
       (fun (r : Drive.req) acc -> if keep r.kind then (r.recv - r.due) :: acc else acc)
       reqs [])

let is_work = function Drive.Work _ -> true | _ -> false
let is_commit = function Drive.Commit -> true | _ -> false
let median_of f l = Stats.median (Array.of_list (List.map f l))
let eps (p : phase) = float_of_int p.events /. p.elapsed_s

let write_boot cfg (w : Workload.t) =
  Sut.mkdir_p cfg.workdir;
  Out_channel.with_open_bin (Filename.concat cfg.workdir "boot.ch") (fun oc ->
      output_string oc w.boot)

let phase_exn = function Ok p -> p | Error msg -> raise (Run_failed msg)

(* The largest oid bound by a NOTIFY — the stream index of the event that
   completed the pattern. *)
let notify_oid (n : Protocol.notify) =
  List.fold_left
    (fun acc env ->
      match List.assoc_opt "X" env with
      | Some x when String.length x > 1 && x.[0] = 'o' -> (
          match int_of_string_opt (String.sub x 1 (String.length x - 1)) with
          | Some oid -> max acc oid
          | None -> acc)
      | _ -> acc)
    (-1) n.bindings

(* Gate results of one phase: the mismatch messages and, with
   subscriptions, the delivery accounting. *)
let gate oracle (w : Workload.t) (p : phase) =
  let replies = Gate.replies oracle p.stream_reqs in
  let delivery =
    if Array.length w.subs = 0 then None
    else Some (Gate.notifies oracle ~upto:p.upto p.pushes)
  in
  let recover =
    match p.recover with
    | Some (_, seq, expected) when seq <> expected ->
        [ Printf.sprintf "recover reports commit seq %d, %d commit(s) acked" seq expected ]
    | _ -> []
  in
  ( p.errors @ replies
    @ (match delivery with Some d -> d.mismatches | None -> [])
    @ recover,
    delivery )

(* Notify delivery on the subscriber connection: latency samples and the
   count of notifies for measured events.  A NOTIFY can only leave at its
   transaction's commit, so its latency runs from that COMMIT's due time
   to the NOTIFY's arrival: the push path's delay, not the time the client
   kept the transaction open. *)
let notify_samples (stream : Workload.txn array) ~first_measured_event (p : phase) =
  let commit_due = Hashtbl.create 4096 in
  Array.iter
    (fun (r : Drive.req) ->
      if r.kind = Drive.Commit then
        Array.iter
          (function
            | Workload.Records { oids; _ } ->
                Array.iter (fun oid -> Hashtbl.replace commit_due oid r.due) oids
            | _ -> ())
          stream.(r.tx).ops)
    p.measured;
  List.fold_left
    (fun (lat, count) -> function
      | Drive.Notify (n, recv) ->
          let oid = notify_oid n in
          ( (match Hashtbl.find_opt commit_due oid with
            | Some due -> (recv - due) :: lat
            | None -> lat),
            if oid >= first_measured_event then count + 1 else count )
      | Drive.Gap _ -> (lat, count))
    ([], 0) p.pushes
  |> fun (lat, count) -> (Array.of_list lat, count)

(* A phase reduced to what the metrics need, gated as soon as it ends so
   that its requests need not stay in memory. *)
type checked = {
  phase : phase;  (** without its requests and pushes *)
  problems : string list;
  delivery : Gate.delivery option;
  ack : int array;  (** due-to-reply of each measured work request *)
  commit : int array;  (** due-to-reply of each measured COMMIT *)
  nlat : int array;  (** commit-due-to-NOTIFY of each measured notify *)
  notifies : int;
}

let check oracle (w : Workload.t) stream ~first_measured_event (p : phase) =
  let problems, delivery = gate oracle w p in
  let nlat, notifies =
    if Array.length w.subs = 0 then ([||], 0)
    else notify_samples stream ~first_measured_event p
  in
  {
    phase = { p with stream_reqs = [||]; measured = [||]; pushes = [] };
    problems;
    delivery;
    ack = latencies p.measured is_work;
    commit = latencies p.measured is_commit;
    nlat;
    notifies;
  }

(* Rounds of the run: each a capacity repetition and a fixed-rate
   repetition, every one on a fresh server.  Spreading the repetitions
   over fresh processes matters on a small machine: which threads end up
   sharing a core is decided per process and sways one repetition's
   numbers by more than anything within it. *)
let rounds = 4

(* Events per second of engine time at the median transaction: robust to
   a burst of interference from outside the benchmark, and defined when
   the per-event cost drifts along the stream. *)
let engine_eps (r : Replay.t) =
  1e9
  /. Stats.median
       (Array.mapi
          (fun i ns -> float_of_int ns /. float_of_int (max 1 r.tx_events.(i)))
          r.tx_ns)

let best f l = List.fold_left (fun acc x -> Float.max acc (f x)) Float.neg_infinity l

let run cfg (w : Workload.t) ~seed =
  let plan = plan w ~seconds:cfg.seconds in
  let deadline_ns = now_ns () + 170_000_000_000 in
  let stream =
    Workload.stream w ~seed ~count:(plan.warm_tx + max plan.cap_tx plan.fix_tx)
  in
  write_boot cfg w;
  (* The replay runs first, on a quiet machine: it is the oracle and the
     single-threaded baseline. *)
  let oracle = Replay.run w stream in
  let first_measured_event =
    Array.fold_left ( + ) 0 (Array.sub oracle.tx_events 0 plan.warm_tx)
  in
  let phase ~upto ~mode name =
    check oracle w stream ~first_measured_event
      (phase_exn
         (run_phase cfg w ~stream ~plan ~upto ~mode ~traced:false ~name ~deadline_ns))
  in
  (* Two more timed replays, halfway and at the end, away from whatever
     slowed the first one. *)
  let replays = ref [ oracle ] in
  let reps =
    List.init rounds (fun i ->
        if i = rounds / 2 then replays := Replay.run w stream :: !replays;
        let cap =
          phase ~upto:(plan.warm_tx + plan.cap_tx) ~mode:Closed
            (Printf.sprintf "capacity-%d" i)
        in
        let fixed =
          phase ~upto:(plan.warm_tx + plan.fix_tx) ~mode:(Open w.rate_eps)
            (Printf.sprintf "fixed-rate-%d" i)
        in
        (cap, fixed))
  in
  let caps = List.map fst reps and fixeds = List.map snd reps in
  let all = caps @ fixeds in
  let problems = List.concat_map (fun c -> c.problems) all in
  let attempted = List.fold_left (fun acc c -> acc + c.phase.attempted) 0 all in
  let failed = List.length problems in
  let pooled f = Array.concat (List.map f fixeds) in
  let ack = pooled (fun c -> c.ack) and commits = pooled (fun c -> c.commit) in
  let nlat = pooled (fun c -> c.nlat) in
  replays := Replay.run w stream :: !replays;
  let m name value unit_ = { name; value; unit_ } in
  let cap_eps c = eps c.phase in
  let p50s f = List.map (fun c -> tail_ms ~want:50. (f c)) fixeds in
  let ack_p50s = p50s (fun c -> c.ack) and commit_p50s = p50s (fun c -> c.commit) in
  let lowest = List.fold_left Float.min Float.infinity in
  (* Throughputs and median latencies are the best repetition:
     interference and an unlucky placement of the threads on the cores
     only ever slow one down. *)
  let metrics =
    [
      m "setup_s" (median_of (fun c -> c.phase.setup_s) all) "s";
      m "capacity_eps" (best cap_eps caps) "1/s";
      m "ack_p50_ms" (lowest ack_p50s) "ms";
      m "server_rss_mb" (median_of (fun c -> float_of_int c.phase.hwm_kb /. 1024.) all) "MB";
      m "engine_eps" (best engine_eps !replays) "1/s";
    ]
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 fixeds in
  let notify =
    if Array.length w.subs = 0 then []
    else
      let owed = sum (fun c -> match c.delivery with Some d -> d.owed | None -> 0) in
      let gapped = sum (fun c -> match c.delivery with Some d -> d.gapped | None -> 0) in
      [
        m "notify_p50_ms" (lowest (p50s (fun c -> c.nlat))) "ms";
        m "notify_p99_ms" (tail_ms ~want:99. nlat) "ms";
        m "notify_eps" (best (fun c -> float_of_int c.notifies /. c.phase.elapsed_s) caps) "1/s";
        m "gap_ratio" (float_of_int gapped /. float_of_int (max 1 owed)) "ratio";
      ]
  in
  let recover =
    if not w.journal then []
    else
      [
        m "recover_s"
          (median_of
             (fun c -> match c.phase.recover with Some (s, _, _) -> s | None -> Float.nan)
             all)
          "s";
      ]
  in
  let extra =
    [
      m "error_ratio" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio";
      m "commit_p50_ms" (lowest commit_p50s) "ms";
      m "ack_p99_ms" (tail_ms ~want:99. ack) "ms";
      m "commit_p99_ms" (tail_ms ~want:99. commits) "ms";
    ]
    @ notify @ recover
  in
  let open_stats = List.filter_map (fun c -> c.phase.open_stats) fixeds in
  let late = Array.concat (List.map (fun (o : Drive.open_stats) -> o.late_ns) open_stats) in
  let backlog f = Json.List (List.map (fun o -> Json.Int (f o)) open_stats) in
  let detail =
    Json.Obj
      ([
         ("ack_p99", tail_json ~want:99. ack);
         ("commit_p99", tail_json ~want:99. commits);
       ]
      @ (if Array.length w.subs = 0 then [] else [ ("notify_p99", tail_json ~want:99. nlat) ])
      @ [
          ("ack_p50_reps_ms", Json.List (List.map (fun v -> Json.Num v) ack_p50s));
          ("commit_p50_reps_ms", Json.List (List.map (fun v -> Json.Num v) commit_p50s));
          ("capacity_reps_eps", Json.List (List.map (fun c -> Json.Num (cap_eps c)) caps));
          ("setup_reps_s", Json.List (List.map (fun c -> Json.Num c.phase.setup_s) all));
          ( "engine_eps_replays",
            Json.List (List.rev_map (fun r -> Json.Num (engine_eps r)) !replays) );
          ("engine_eps_overall", Json.Num (Replay.eps oracle));
          ( "engine_cost_growth",
            Json.Num (Replay.cost_growth ~tx_ns:oracle.tx_ns ~tx_events:oracle.tx_events) );
          ("store_live_objects", Json.Int oracle.live_objects);
          ( "validity",
            Json.Obj
              [
                ("gen_late_p99", tail_json ~want:99. late);
                ("backlog_mid", backlog (fun o -> o.Drive.backlog_mid));
                ("backlog_end", backlog (fun o -> o.Drive.backlog_end));
              ] );
          ( "plan",
            Json.Obj
              [
                ("rounds", Json.Int rounds);
                ("warm_tx", Json.Int plan.warm_tx);
                ("capacity_tx", Json.Int plan.cap_tx);
                ("fixed_tx", Json.Int plan.fix_tx);
                ("fixed_seconds", Json.Num plan.fix_seconds);
                ("rate_eps", Json.Num w.rate_eps);
              ] );
          ( "gate_failures",
            Json.List (List.map (fun m -> Json.Str m) (List.filteri (fun i _ -> i < 20) problems)) );
        ])
  in
  { workload = w.name; seed; correct = failed = 0; attempted; failed; metrics; extra; detail }

(* ----------------------------------------------------------------- trace *)

(* The in-process passes are capped at this many events: enough samples,
   bounded memory. *)
let trace_events = 200_000

(* The traced run: a capacity repetition against a metrics-on server (its
   STATS and its drained snapshot embedded), one against a metrics-off
   server (the difference is the tracing overhead), and the per-layer
   passes of [Layers] on the same stream. *)
let trace cfg (w : Workload.t) ~seed =
  let plan = plan w ~seconds:cfg.seconds in
  let deadline_ns = now_ns () + 170_000_000_000 in
  let upto = plan.warm_tx + plan.cap_tx in
  let stream = Workload.stream w ~seed ~count:upto in
  write_boot cfg w;
  let oracle =
    Replay.run
      ~on_start:(fun () ->
        Obs.reset ();
        Obs.set_enabled true)
      w stream
  in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  let counter name = Option.value ~default:0 (List.assoc_opt name snap.counters) in
  let oracle_events = Array.fold_left ( + ) 0 oracle.tx_events in
  let phase ~traced name =
    phase_exn (run_phase cfg w ~stream ~plan ~upto ~mode:Closed ~traced ~name ~deadline_ns)
  in
  let traced = phase ~traced:true "capacity-traced" in
  let untraced = phase ~traced:false "capacity-untraced" in
  let phases = [ traced; untraced ] in
  let problems = List.concat_map (fun p -> fst (gate oracle w p)) phases in
  (* The in-process passes, on the stream's first [trace_events] events. *)
  let tstream =
    let n = ref 0 and events = ref 0 in
    while !n < Array.length stream && !events < trace_events do
      events := !events + Workload.txn_events stream.(!n);
      incr n
    done;
    Array.sub stream 0 !n
  in
  let ops = Array.concat (Array.to_list (Array.map (fun (t : Workload.txn) -> t.ops) tstream)) in
  let events = Array.fold_left (fun acc t -> acc + Workload.txn_events t) 0 tstream in
  let per_event ns = float_of_int ns /. float_of_int (max 1 events) in
  let framing_ns, payload_ns = Layers.decode_ns ops in
  let encode_ns = Layers.encode_ns w oracle ~upto:(Array.length tstream) in
  let parse_per_line, parse_lines_ns = Layers.parse_ns w ops in
  (* The passes whose differences are the self times run twice,
     interleaved, and each keeps its faster run: interference from
     outside only ever adds time, and one pass's noise is of the order of
     a thin layer's whole self time. *)
  let passes () =
    let e = Layers.engine_pass ~per_event:false w tstream in
    let s = Layers.session_inline w tstream in
    (e, s, Layers.server_inline w tstream)
  in
  let e1, s1, v1 = passes () in
  let e2, s2, v2 = passes () in
  let eng = if e1.engine_total_ns <= e2.engine_total_ns then e1 else e2 in
  let session_ns = min s1 s2 in
  let srv = if v1.poll_ns <= v2.poll_ns then v1 else v2 in
  let lines = Layers.engine_pass ~per_event:true w tstream in
  let record_ns = Layers.record_ns lines.occurrences in
  let journal_dir = Filename.concat cfg.workdir "journal-trace" in
  Sut.mkdir_p journal_dir;
  let jp = Layers.journal_pass w tstream ~dir:journal_dir in
  let mailbox = Layers.session_mailbox w tstream ~op_ns:eng.op_ns in
  let engine_ns = per_event eng.engine_total_ns in
  let session_self =
    (float_of_int session_ns -. float_of_int eng.engine_total_ns -. parse_lines_ns
   -. payload_ns)
    /. float_of_int (max 1 events)
  in
  let poll_self = per_event (srv.poll_ns - session_ns) in
  let inline_ns = per_event srv.wall_ns in
  let layer_sum =
    poll_self +. session_self +. engine_ns
    +. ((parse_lines_ns +. payload_ns) /. float_of_int (max 1 events))
  in
  let line_tail want = float_of_int (Stats.tail ~want lines.line_ns).value in
  let mailbox_tail want = float_of_int (Stats.tail ~want mailbox).value in
  let mean a = Stats.mean (Array.map float_of_int a) in
  let growth =
    let n = Array.length lines.line_ns in
    let k = max 1 (n / 10) in
    mean (Array.sub lines.line_ns (n - k) k) /. mean (Array.sub lines.line_ns 0 k)
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let m name value unit_ = { name; value; unit_ } in
  let metrics =
    [
      m "protocol.decode_ns_per_event" ((framing_ns +. payload_ns) /. float_of_int (max 1 events)) "ns";
      m "protocol.encode_ns_per_reply" encode_ns "ns";
      m "server.poll_self_ns_per_event" poll_self "ns";
      m "server.turns_per_event" (ratio srv.turns events) "count";
      m "session.self_ns_per_event" session_self "ns";
      m "session.mailbox_wait_ns_p50" (mailbox_tail 50.) "ns";
      m "session.mailbox_wait_ns_p99" (mailbox_tail 99.) "ns";
      m "lang.parse_ns_per_line" parse_per_line "ns";
      m "engine.line_ns_p50" (line_tail 50.) "ns";
      m "engine.line_ns_p99" (line_tail 99.) "ns";
      m "engine.commit_ns" (mean eng.commit_ns) "ns";
      m "engine.abort_ns" (mean eng.abort_ns) "ns";
      m "engine.cost_growth" growth "ratio";
      m "trigger.woken_per_event" (ratio (counter "trigger.woken") oracle_events) "count";
      m "trigger.probes_per_event" (ratio (counter "trigger.probes") oracle_events) "count";
      m "trigger.skipped_ratio" (ratio (counter "trigger.skipped") (counter "trigger.checks")) "ratio";
      m "calculus.ts_evals_per_event"
        (ratio (counter "ts.evals" + counter "memo.evals") oracle_events)
        "count";
      m "calculus.memo_hit_ratio"
        (ratio (counter "memo.hits") (counter "memo.hits" + counter "memo.misses"))
        "ratio";
      m "calculus.ts_eval_ns" eng.ts_eval_ns "ns";
      m "event.record_ns" record_ns "ns";
      m "journal.append_ns" jp.append_ns "ns";
      m "journal.commit_ns" jp.commit_ns "ns";
      m "journal.bytes_per_event" jp.bytes_per_event "bytes";
      m "journal.checkpoint_ns" jp.checkpoint_ns "ns";
      m "store.live_objects" (float_of_int eng.live_objects) "count";
      m "trace.overhead_eps" (eps traced -. eps untraced) "1/s";
      m "trace.inline_ns_per_event" inline_ns "ns";
    ]
  in
  let failed = List.length problems in
  let attempted = List.fold_left (fun acc (p : phase) -> acc + p.attempted) 0 phases in
  let detail =
    Json.Obj
      [
        ("capacity_eps_traced", Json.Num (eps traced));
        ("capacity_eps_untraced", Json.Num (eps untraced));
        ( "server_snapshot",
          Json.Obj
            [
              ( "stats",
                Json.Obj
                  (List.map
                     (fun (k, v) -> (k, Json.Int v))
                     (Snapshot.of_stats (Option.value traced.stats ~default:""))) );
              ("metrics", Snapshot.of_dump traced.exit_text);
            ] );
        ( "inline_breakdown_ns_per_event",
          Json.Obj
            [
              ("wall", Json.Num inline_ns);
              ("server_self", Json.Num poll_self);
              ("session_self", Json.Num session_self);
              ("lang_parse", Json.Num (parse_lines_ns /. float_of_int (max 1 events)));
              ("protocol_payload_decode", Json.Num (payload_ns /. float_of_int (max 1 events)));
              ("protocol_framing", Json.Num (framing_ns /. float_of_int (max 1 events)));
              ("engine", Json.Num engine_ns);
            ] );
        ("layer_sum_ratio", Json.Num (layer_sum /. inline_ns));
        ("trace_events", Json.Int events);
        ( "gate_failures",
          Json.List (List.map (fun s -> Json.Str s) (List.filteri (fun i _ -> i < 20) problems)) );
      ]
  in
  { workload = w.name; seed; correct = failed = 0; attempted; failed; metrics; extra = []; detail }
